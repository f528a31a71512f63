//! The overall mean-field model `𝓜ᴼ` (Def. 2) and its deterministic limit.
//!
//! By the mean-field convergence theorem (Theorem 1 of the paper, after
//! Kurtz / Bobbio-Gribaudo-Telek), the occupancy vector of `N → ∞`
//! interacting objects follows the ODE `dm̄/dt = m̄(t)·Q(m̄(t))` (Eq. 1).
//! [`solve`] integrates it into a dense [`OccupancyTrajectory`]; along the
//! trajectory, a random individual object is the *time-inhomogeneous* CTMC
//! with generator `Q(m̄(t))`, exposed through [`TrajectoryGenerator`] for
//! the CSL layer.

use std::cell::RefCell;

use mfcsl_csl::{CslError, LocalTvModel};
use mfcsl_ctmc::inhomogeneous::TimeVaryingGenerator;
use mfcsl_math::Matrix;
use mfcsl_ode::batch::{solve_batch_recovering, BatchMode, BatchStats, BatchWorkspace};
use mfcsl_ode::dopri::SolverWorkspace;
use mfcsl_ode::fault::{FaultPlan, FaultySystem};
use mfcsl_ode::problem::OdeSystem;
use mfcsl_ode::recover::{solve_recovering, Recovery};
use mfcsl_ode::{OdeOptions, Trajectory};

use crate::{CoreError, LocalModel, Occupancy};

/// Drift threshold below which the trajectory counts as settled for the
/// steady-regime fast path. Conservative: a drift of `ε` over a window of
/// length `T` perturbs the window matrix by `O(ε·L·T)` (`L` the rate
/// functions' Lipschitz constant), so `1e-11` keeps the fast path within
/// the `1e-9` equivalence budget for the windows the checkers use.
pub const STEADY_DETECT_EPS: f64 = 1e-11;

/// A dense solution of the mean-field ODE (Eq. 1) over `[0, t_end]`.
#[derive(Debug, Clone)]
pub struct OccupancyTrajectory<'a> {
    model: &'a LocalModel,
    trajectory: Trajectory,
}

impl<'a> OccupancyTrajectory<'a> {
    /// Re-attaches a bare [`Trajectory`] to its model — the snapshot-restore
    /// path. The trajectory must have the model's dimension and start at
    /// `t = 0`; its knot data is taken verbatim, so a trajectory serialized
    /// with exact bit patterns round-trips bitwise and every verdict derived
    /// from it matches the pre-snapshot session exactly.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] on a dimension mismatch or a nonzero
    /// start time.
    pub fn from_parts(
        model: &'a LocalModel,
        trajectory: Trajectory,
    ) -> Result<OccupancyTrajectory<'a>, CoreError> {
        if trajectory.dim() != model.n_states() {
            return Err(CoreError::InvalidArgument(format!(
                "trajectory has dimension {}, model has {} states",
                trajectory.dim(),
                model.n_states()
            )));
        }
        if trajectory.t_start() != 0.0 {
            return Err(CoreError::InvalidArgument(format!(
                "trajectory starts at t = {}, expected 0",
                trajectory.t_start()
            )));
        }
        Ok(OccupancyTrajectory { model, trajectory })
    }

    /// The local model this trajectory belongs to.
    #[must_use]
    pub fn model(&self) -> &'a LocalModel {
        self.model
    }

    /// The underlying dense ODE solution.
    #[must_use]
    pub fn trajectory(&self) -> &Trajectory {
        &self.trajectory
    }

    /// End of the solved time range.
    #[must_use]
    pub fn t_end(&self) -> f64 {
        self.trajectory.t_end()
    }

    /// The occupancy vector `m̄(t)` (clamped to the solved range and
    /// projected back onto the simplex).
    ///
    /// # Panics
    ///
    /// Panics only if the stored trajectory has decayed to an all-zero
    /// vector, which the simplex projection of the integrator prevents.
    #[must_use]
    pub fn occupancy_at(&self, t: f64) -> Occupancy {
        Occupancy::project(self.trajectory.eval(t))
            .expect("projected trajectory stays on the simplex")
    }

    /// The time-varying generator `Q(m̄(t))` of a random individual object.
    #[must_use]
    pub fn generator(&self) -> TrajectoryGenerator<'_> {
        TrajectoryGenerator {
            model: self.model,
            trajectory: &self.trajectory,
        }
    }

    /// Packages the trajectory as the labeled time-varying local model the
    /// CSL checkers operate on (without a stationary regime; see
    /// [`crate::mfcsl::Checker`] for the variant that attaches one).
    ///
    /// When the trajectory has numerically settled before its horizon, the
    /// settle time is attached via [`LocalTvModel::with_steady_from`], which
    /// lets the until algorithms hand the window propagation off to a
    /// single uniformization once the generator stops varying.
    ///
    /// # Errors
    ///
    /// Propagates shape validation from [`LocalTvModel::new`].
    pub fn local_tv_model(&self) -> Result<LocalTvModel<TrajectoryGenerator<'_>>, CslError> {
        let mut tv = LocalTvModel::new(
            self.generator(),
            self.model.labeling().clone(),
            self.model.state_names().to_vec(),
        )?;
        if let Some(t) = self.settled_from(STEADY_DETECT_EPS) {
            tv = tv.with_steady_from(t);
        }
        // On-the-fly satisfaction sets: restrict predicate evaluation to
        // the forward-reachable closure of the initial occupancy's support.
        // For models whose initial occupancy touches every communicating
        // class this is the full space (and sat vectors are unchanged);
        // for large structured models it prunes the unreachable bulk.
        let m0 = self.occupancy_at(0.0);
        let support: Vec<usize> = (0..m0.len()).filter(|&s| m0[s] > 0.0).collect();
        tv = tv.with_reachable(self.model.reachable_closure(&support));
        Ok(tv)
    }

    /// The earliest knot time from which the trajectory stays settled: every
    /// knot from there to the horizon has `‖dm̄/dt‖∞ ≤ eps`. Beyond the
    /// horizon the dense solution extrapolates as a constant, so from the
    /// returned time on the generator `Q(m̄(t))` no longer varies (within
    /// the drift bound `eps`). `None` if the final knot still moves.
    #[must_use]
    pub fn settled_from(&self, eps: f64) -> Option<f64> {
        let curve = self.trajectory.curve();
        let ts = curve.knots();
        let mut settled = None;
        for k in (0..ts.len()).rev() {
            if curve.derivative_at(k).iter().all(|&v| v.abs() <= eps) {
                settled = Some(ts[k]);
            } else {
                break;
            }
        }
        settled
    }

    /// The earliest knot time from which every later knot stays within
    /// `eps` (max norm) of `target` — used by the analysis engine to stamp
    /// a stationary regime with the time its trajectory reached `m̃`.
    /// `None` if the final knot is still farther than `eps` away, or on a
    /// dimension mismatch.
    #[must_use]
    pub fn settled_near(&self, target: &[f64], eps: f64) -> Option<f64> {
        let curve = self.trajectory.curve();
        if target.len() != curve.dim() {
            return None;
        }
        let ts = curve.knots();
        let mut settled = None;
        for k in (0..ts.len()).rev() {
            let close = curve
                .value_at(k)
                .iter()
                .zip(target)
                .all(|(&v, &m)| (v - m).abs() <= eps);
            if close {
                settled = Some(ts[k]);
            } else {
                break;
            }
        }
        settled
    }

    /// Extends the trajectory to a longer horizon by solving only the new
    /// segment `[t_end, new_t_end]`, restarting the integrator from the
    /// exact (bitwise) final knot state.
    ///
    /// The already-solved knot data is kept untouched, so every evaluation
    /// on the old range — and therefore every satisfaction set or
    /// probability curve cached against it — remains bitwise identical.
    /// A horizon at or below the current `t_end` returns the trajectory
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for a non-finite horizon and
    /// propagates ODE failures from the segment solve.
    pub fn extended_to(self, t_end: f64, options: &OdeOptions) -> Result<Self, CoreError> {
        self.extended_to_with(t_end, options, &mut SolverWorkspace::new())
    }

    /// Like [`OccupancyTrajectory::extended_to`] but reuses a caller-owned
    /// solver workspace for the segment solve, so repeated horizon
    /// extensions (the analysis engine's common case) allocate nothing per
    /// call beyond the new knot storage.
    ///
    /// # Errors
    ///
    /// Same contract as [`OccupancyTrajectory::extended_to`].
    pub fn extended_to_with(
        self,
        t_end: f64,
        options: &OdeOptions,
        workspace: &mut SolverWorkspace,
    ) -> Result<Self, CoreError> {
        if !t_end.is_finite() {
            return Err(CoreError::InvalidArgument(format!(
                "horizon must be finite, got {t_end}"
            )));
        }
        if t_end <= self.t_end() {
            return Ok(self);
        }
        let t0 = self.t_end();
        let y0 = self.trajectory.eval(t0);
        let sys = MeanFieldSystem::new(self.model);
        // Extensions ride the recovery ladder too (never fault-injected:
        // faults apply to fresh solves, where the chaos suite exercises
        // them); the tail's recovery counters sum into the trajectory's.
        let tail = solve_recovering(&sys, t0, t_end, &y0, options, workspace)?.0;
        Ok(OccupancyTrajectory {
            model: self.model,
            trajectory: self.trajectory.extended_with(&tail)?,
        })
    }
}

/// [`TimeVaryingGenerator`] adapter: evaluates `Q(m̄(t))` by reading the
/// occupancy off the dense trajectory.
#[derive(Debug, Clone, Copy)]
pub struct TrajectoryGenerator<'a> {
    model: &'a LocalModel,
    trajectory: &'a Trajectory,
}

impl TimeVaryingGenerator for TrajectoryGenerator<'_> {
    fn n_states(&self) -> usize {
        self.model.n_states()
    }

    fn write_generator(&self, t: f64, q: &mut Matrix) {
        let m = Occupancy::project(self.trajectory.eval(t))
            .expect("projected trajectory stays on the simplex");
        self.model.write_generator_at(&m, q);
    }

    fn sparsity(&self) -> Option<(&[usize], &[usize])> {
        Some(self.model.sparsity())
    }

    fn write_rates(&self, t: f64, rates: &mut [f64]) {
        let m = Occupancy::project(self.trajectory.eval(t))
            .expect("projected trajectory stays on the simplex");
        self.model.write_rates_at(&m, rates);
    }
}

/// Integrates the mean-field ODE (Eq. 1) from `m0` to `t_end`.
///
/// The integrator re-projects onto the probability simplex after every
/// accepted step, so the returned trajectory is a valid occupancy at every
/// time.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] on a dimension mismatch or
/// negative horizon, and propagates ODE failures (e.g. a rate function
/// returning NaN surfaces as a non-finite derivative).
///
/// # Example
///
/// ```
/// use mfcsl_core::{meanfield, LocalModel, Occupancy};
/// use mfcsl_ode::OdeOptions;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = LocalModel::builder()
///     .state("s", ["healthy"])
///     .state("i", ["infected"])
///     .transition("s", "i", |m: &Occupancy| 2.0 * m[1])?
///     .constant_transition("i", "s", 1.0)?
///     .build()?;
/// let m0 = Occupancy::new(vec![0.9, 0.1])?;
/// let sol = meanfield::solve(&model, &m0, 50.0, &OdeOptions::default())?;
/// // SIS endemic equilibrium at infected fraction 1 - γ/β = 0.5.
/// assert!((sol.occupancy_at(50.0)[1] - 0.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn solve<'a>(
    model: &'a LocalModel,
    m0: &Occupancy,
    t_end: f64,
    options: &OdeOptions,
) -> Result<OccupancyTrajectory<'a>, CoreError> {
    solve_with(model, m0, t_end, options, &mut SolverWorkspace::new())
}

/// Like [`solve`] but reuses a caller-owned solver workspace, so
/// back-to-back mean-field solves (parameter sweeps, the `cSat` grid)
/// allocate nothing per call beyond the trajectory's own knot storage.
///
/// # Errors
///
/// Same contract as [`solve`].
pub fn solve_with<'a>(
    model: &'a LocalModel,
    m0: &Occupancy,
    t_end: f64,
    options: &OdeOptions,
    workspace: &mut SolverWorkspace,
) -> Result<OccupancyTrajectory<'a>, CoreError> {
    solve_faulted_with(model, m0, t_end, options, None, workspace)
}

/// Like [`solve`] but optionally wraps the right-hand side in a seeded
/// [`FaultySystem`] — the chaos-testing hook. With `fault == None` this is
/// exactly [`solve`], bitwise.
///
/// # Errors
///
/// Same contract as [`solve`]; injected faults surface as the structured
/// ODE errors they provoke (never a panic).
pub fn solve_faulted<'a>(
    model: &'a LocalModel,
    m0: &Occupancy,
    t_end: f64,
    options: &OdeOptions,
    fault: Option<FaultPlan>,
) -> Result<OccupancyTrajectory<'a>, CoreError> {
    solve_faulted_with(
        model,
        m0,
        t_end,
        options,
        fault,
        &mut SolverWorkspace::new(),
    )
}

/// Workspace-reusing variant of [`solve_faulted`]; the common
/// implementation behind every fresh mean-field solve. Integration runs
/// through the recovery ladder ([`mfcsl_ode::recover`]): plain Dopri5
/// first (bitwise identical when healthy), then a relaxed controller, then
/// the A-stable implicit trapezoid, with recoveries recorded in the
/// trajectory's [`mfcsl_ode::SolveStats`].
///
/// # Errors
///
/// Same contract as [`solve`].
pub fn solve_faulted_with<'a>(
    model: &'a LocalModel,
    m0: &Occupancy,
    t_end: f64,
    options: &OdeOptions,
    fault: Option<FaultPlan>,
    workspace: &mut SolverWorkspace,
) -> Result<OccupancyTrajectory<'a>, CoreError> {
    let n = model.n_states();
    if m0.len() != n {
        return Err(CoreError::InvalidArgument(format!(
            "initial occupancy has {} entries, model has {n} states",
            m0.len()
        )));
    }
    if !(t_end >= 0.0) || !t_end.is_finite() {
        return Err(CoreError::InvalidArgument(format!(
            "horizon must be finite and non-negative, got {t_end}"
        )));
    }
    let sys = MeanFieldSystem::new(model);
    let trajectory = match fault {
        None => solve_recovering(&sys, 0.0, t_end, m0.as_slice(), options, workspace)?.0,
        Some(plan) => {
            let faulty = FaultySystem::new(&sys, plan);
            solve_recovering(&faulty, 0.0, t_end, m0.as_slice(), options, workspace)?.0
        }
    };
    Ok(OccupancyTrajectory { model, trajectory })
}

/// The mean-field ODE system `dm̄/dt = m̄·Q(m̄)` with simplex projection —
/// shared by the fresh solve and the segment solve of
/// [`OccupancyTrajectory::extended_to`], so both integrate exactly the same
/// right-hand side.
///
/// The occupancy copy and the per-transition rate buffer live in a
/// `RefCell` scratch allocated once per system, so the right-hand side
/// itself is allocation-free; it evaluates the drift over the transition
/// pattern ([`LocalModel::write_drift`]), bitwise equal to the dense
/// product `m̄·Q(m̄)`.
pub struct MeanFieldSystem<'a> {
    model: &'a LocalModel,
    scratch: RefCell<MfScratch>,
}

struct MfScratch {
    occ: Occupancy,
    rates: Vec<f64>,
}

impl<'a> MeanFieldSystem<'a> {
    /// The mean-field ODE of `model`.
    #[must_use]
    pub fn new(model: &'a LocalModel) -> Self {
        MeanFieldSystem {
            model,
            scratch: RefCell::new(MfScratch {
                occ: Occupancy::new_unchecked(vec![0.0; model.n_states()]),
                rates: vec![0.0; model.sparsity().0.len()],
            }),
        }
    }
}

impl OdeSystem for MeanFieldSystem<'_> {
    fn dim(&self) -> usize {
        self.model.n_states()
    }

    fn rhs(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let mut s = self.scratch.borrow_mut();
        // Mid-step states may drift slightly off the simplex, so project the
        // copy we hand to the rate functions; the copy's buffer is recycled
        // through the scratch `Occupancy`.
        let mut m = std::mem::replace(&mut s.occ, Occupancy::new_unchecked(Vec::new())).into_vec();
        m.copy_from_slice(y);
        let projected = mfcsl_math::simplex::renormalize(&mut m).is_ok();
        s.occ = Occupancy::new_unchecked(m);
        if !projected {
            // Signal the solver through a non-finite derivative.
            dy.fill(f64::NAN);
            return;
        }
        let MfScratch { occ, rates } = &mut *s;
        self.model.write_drift(occ, rates, dy, 1);
    }

    fn project(&self, _t: f64, y: &mut [f64]) {
        let _ = mfcsl_math::simplex::renormalize(y);
    }

    /// Real K×B kernel for the batched solving lane: one pass evaluates
    /// `m̄·Q(m̄)` for every active column without the gather/scatter round
    /// trip through the scalar path's slice API, reusing the same scratch
    /// occupancy and rate buffer across columns and writing each lane of
    /// `dy` in place at stride `width`. Per column the arithmetic
    /// (projection, rate evaluation, accumulation order) is exactly
    /// [`MeanFieldSystem::rhs`], so per-lane batched trajectories are
    /// bitwise identical to serial ones.
    fn rhs_batch(&self, _ts: &[f64], active: &[bool], y: &[f64], dy: &mut [f64], width: usize) {
        let n = self.dim();
        let mut s = self.scratch.borrow_mut();
        let MfScratch { occ, rates } = &mut *s;
        let mut m = std::mem::replace(occ, Occupancy::new_unchecked(Vec::new())).into_vec();
        for b in 0..width {
            if !active[b] {
                continue;
            }
            for (i, mi) in m.iter_mut().enumerate() {
                *mi = y[i * width + b];
            }
            if mfcsl_math::simplex::renormalize(&mut m).is_err() {
                for i in 0..n {
                    dy[i * width + b] = f64::NAN;
                }
                continue;
            }
            let lane = Occupancy::new_unchecked(m);
            self.model.write_drift(&lane, rates, &mut dy[b..], width);
            m = lane.into_vec();
        }
        *occ = Occupancy::new_unchecked(m);
    }

    /// Batched simplex projection: renormalizes every active column in
    /// place through the same scratch buffer, replicating
    /// [`MeanFieldSystem::project`] per column bitwise.
    fn project_batch(&self, _ts: &[f64], active: &[bool], y: &mut [f64], width: usize) {
        let mut s = self.scratch.borrow_mut();
        let mut m = std::mem::replace(&mut s.occ, Occupancy::new_unchecked(Vec::new())).into_vec();
        for b in 0..width {
            if !active[b] {
                continue;
            }
            for (i, mi) in m.iter_mut().enumerate() {
                *mi = y[i * width + b];
            }
            let _ = mfcsl_math::simplex::renormalize(&mut m);
            for (i, &mi) in m.iter().enumerate() {
                y[i * width + b] = mi;
            }
        }
        s.occ = Occupancy::new_unchecked(m);
    }
}

/// Per-lane results and drive counters of a batched mean-field sweep.
#[derive(Debug)]
pub struct BatchSweep<'a> {
    /// One entry per initial occupancy, in input order. A lane that
    /// detached from the batch and exhausted the scalar recovery ladder
    /// carries the ladder's error; every other lane reports its trajectory
    /// and the recovery rung that produced it ([`Recovery::None`] when the
    /// batched drive itself succeeded).
    pub lanes: Vec<Result<(OccupancyTrajectory<'a>, Recovery), CoreError>>,
    /// Drive counters of the underlying batched solve:
    /// `stats.batch_rhs_calls` is the number of K×B kernel invocations that
    /// propagated the whole sweep.
    pub stats: BatchStats,
}

/// Integrates the mean-field ODE from every occupancy of `m0s` to `t_end`
/// as one structure-of-arrays batch ([`mfcsl_ode::batch`]).
///
/// In [`BatchMode::PerLane`] every lane is bitwise identical to the
/// corresponding serial [`solve`]; in [`BatchMode::Shared`] the whole sweep
/// rides one step-size controller, costing roughly a single solve's worth
/// of drive. Lanes that fail numerically detach and are re-solved through
/// the scalar recovery ladder without perturbing their siblings.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] for a dimension-mismatched lane
/// or an invalid horizon (whole-call, mirroring [`solve`]'s validation);
/// per-lane numerical failures surface inside [`BatchSweep::lanes`].
pub fn solve_batch<'a>(
    model: &'a LocalModel,
    m0s: &[Occupancy],
    t_end: f64,
    options: &OdeOptions,
    mode: BatchMode,
) -> Result<BatchSweep<'a>, CoreError> {
    solve_batch_with(
        model,
        m0s,
        t_end,
        options,
        mode,
        &mut BatchWorkspace::new(),
        &mut SolverWorkspace::new(),
    )
}

/// Workspace-reusing variant of [`solve_batch`] for repeated sweeps.
///
/// # Errors
///
/// Same contract as [`solve_batch`].
pub fn solve_batch_with<'a>(
    model: &'a LocalModel,
    m0s: &[Occupancy],
    t_end: f64,
    options: &OdeOptions,
    mode: BatchMode,
    workspace: &mut BatchWorkspace,
    scalar_workspace: &mut SolverWorkspace,
) -> Result<BatchSweep<'a>, CoreError> {
    let n = model.n_states();
    for (b, m0) in m0s.iter().enumerate() {
        if m0.len() != n {
            return Err(CoreError::InvalidArgument(format!(
                "initial occupancy {b} has {} entries, model has {n} states",
                m0.len()
            )));
        }
    }
    if !(t_end >= 0.0) || !t_end.is_finite() {
        return Err(CoreError::InvalidArgument(format!(
            "horizon must be finite and non-negative, got {t_end}"
        )));
    }
    let sys = MeanFieldSystem::new(model);
    let y0s: Vec<&[f64]> = m0s.iter().map(Occupancy::as_slice).collect();
    let solution = solve_batch_recovering(
        &sys,
        0.0,
        t_end,
        &y0s,
        options,
        mode,
        workspace,
        scalar_workspace,
    )?;
    let lanes = solution
        .lanes
        .into_iter()
        .map(|lane| match lane {
            Ok((trajectory, recovery)) => Ok((OccupancyTrajectory { model, trajectory }, recovery)),
            Err(e) => Err(CoreError::from(e)),
        })
        .collect();
    Ok(BatchSweep {
        lanes,
        stats: solution.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sis(beta: f64, gamma: f64) -> LocalModel {
        LocalModel::builder()
            .state("s", ["healthy"])
            .state("i", ["infected"])
            .transition("s", "i", move |m: &Occupancy| beta * m[1])
            .unwrap()
            .constant_transition("i", "s", gamma)
            .unwrap()
            .build()
            .unwrap()
    }

    /// The paper's virus model (Fig. 2 / Eq. 21) with the smart-virus
    /// infection law `k₁* = k₁ m₃ / m₁`.
    fn virus(k: [f64; 5]) -> LocalModel {
        let [k1, k2, k3, k4, k5] = k;
        LocalModel::builder()
            .state("s1", ["not_infected"])
            .state("s2", ["infected", "inactive"])
            .state("s3", ["infected", "active"])
            .transition("s1", "s2", move |m: &Occupancy| {
                if m[0] > 1e-12 {
                    k1 * m[2] / m[0]
                } else {
                    0.0
                }
            })
            .unwrap()
            .constant_transition("s2", "s1", k2)
            .unwrap()
            .constant_transition("s2", "s3", k3)
            .unwrap()
            .constant_transition("s3", "s2", k4)
            .unwrap()
            .constant_transition("s3", "s1", k5)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn sis_logistic_dynamics_analytic() {
        // SIS mean field: di/dt = βsi - γi with s = 1 - i is logistic.
        // β = 2, γ = 1: i(t) = 0.5 / (1 + (0.5/i0 - 1) e^{-t}) for i0 > 0.
        let model = sis(2.0, 1.0);
        let m0 = Occupancy::new(vec![0.9, 0.1]).unwrap();
        let sol = solve(
            &model,
            &m0,
            10.0,
            &OdeOptions::default().with_tolerances(1e-11, 1e-13),
        )
        .unwrap();
        for &t in &[0.5, 2.0, 5.0, 10.0] {
            let exact = 0.5 / (1.0 + (0.5 / 0.1 - 1.0) * (-t_f(t)).exp());
            let got = sol.occupancy_at(t)[1];
            assert!((got - exact).abs() < 1e-8, "t = {t}: {got} vs {exact}");
        }
        fn t_f(t: f64) -> f64 {
            t
        }
    }

    #[test]
    fn virus_ode_matches_eq21() {
        // For the smart-virus law, the overall ODE is linear (Eq. 21):
        // dm1 = -k1 m3 + k2 m2 + k5 m3, etc. Check the drift directly.
        let k = [0.9, 0.1, 0.01, 0.3, 0.3];
        let model = virus(k);
        let m = Occupancy::new(vec![0.8, 0.15, 0.05]).unwrap();
        let d = model.drift(&m).unwrap();
        let expected = [
            -k[0] * m[2] + k[1] * m[1] + k[4] * m[2],
            (k[0] + k[3]) * m[2] - (k[1] + k[2]) * m[1],
            k[2] * m[1] - (k[3] + k[4]) * m[2],
        ];
        for (a, b) in d.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-14, "{d:?} vs {expected:?}");
        }
    }

    #[test]
    fn trajectory_stays_on_simplex() {
        let model = virus([5.0, 0.02, 0.01, 0.5, 0.5]);
        let m0 = Occupancy::new(vec![0.85, 0.1, 0.05]).unwrap();
        let sol = solve(&model, &m0, 30.0, &OdeOptions::default()).unwrap();
        for &t in &[0.0, 1.0, 7.7, 15.0, 30.0] {
            let m = sol.occupancy_at(t);
            let sum: f64 = m.as_slice().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(m.as_slice().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn generator_adapter_tracks_occupancy() {
        let model = sis(2.0, 1.0);
        let m0 = Occupancy::new(vec![0.9, 0.1]).unwrap();
        let sol = solve(&model, &m0, 5.0, &OdeOptions::default()).unwrap();
        let gen = sol.generator();
        assert_eq!(gen.n_states(), 2);
        let q0 = gen.generator_at(0.0);
        assert!((q0[(0, 1)] - 0.2).abs() < 1e-9);
        // Later the infected fraction has grown, so the infection rate has
        // too.
        let q5 = gen.generator_at(5.0);
        assert!(q5[(0, 1)] > q0[(0, 1)]);
    }

    #[test]
    fn local_tv_model_carries_labels() {
        let model = sis(2.0, 1.0);
        let m0 = Occupancy::new(vec![0.9, 0.1]).unwrap();
        let sol = solve(&model, &m0, 1.0, &OdeOptions::default()).unwrap();
        let tv = sol.local_tv_model().unwrap();
        assert_eq!(tv.n_states(), 2);
        assert_eq!(tv.sat_ap("infected").unwrap(), vec![false, true]);
    }

    #[test]
    fn extension_matches_single_solve_within_tolerance() {
        // Solve to θ₁, extend to θ₂ — must agree with one fresh solve to θ₂
        // within the ODE tolerance everywhere (the two take different step
        // sequences past θ₁, so exact equality is not expected there).
        let model = virus([0.9, 0.1, 0.01, 0.3, 0.3]);
        let m0 = Occupancy::new(vec![0.85, 0.1, 0.05]).unwrap();
        let options = OdeOptions::default().with_tolerances(1e-9, 1e-12);
        let (theta1, theta2) = (4.0, 11.0);
        let partial = solve(&model, &m0, theta1, &options).unwrap();
        let prefix_sample = partial.trajectory().eval(2.3);
        let extended = partial.extended_to(theta2, &options).unwrap();
        assert_eq!(extended.t_end(), theta2);
        // Extension left the old range bitwise untouched.
        assert_eq!(extended.trajectory().eval(2.3), prefix_sample);
        let fresh = solve(&model, &m0, theta2, &options).unwrap();
        for i in 0..=22 {
            let t = theta2 * f64::from(i) / 22.0;
            let a = extended.occupancy_at(t);
            let b = fresh.occupancy_at(t);
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert!((x - y).abs() < 1e-7, "t = {t}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn extension_noop_and_validation() {
        let model = sis(2.0, 1.0);
        let m0 = Occupancy::new(vec![0.9, 0.1]).unwrap();
        let options = OdeOptions::default();
        let sol = solve(&model, &m0, 3.0, &options).unwrap();
        let knots_before = sol.trajectory().knots().to_vec();
        // Shorter or equal horizons are no-ops.
        let sol = sol.extended_to(1.0, &options).unwrap();
        assert_eq!(sol.trajectory().knots(), &knots_before[..]);
        let sol = sol.extended_to(3.0, &options).unwrap();
        assert_eq!(sol.trajectory().knots(), &knots_before[..]);
        assert!(sol.extended_to(f64::NAN, &options).is_err());
    }

    #[test]
    fn settle_detection_finds_the_regime_entry() {
        // SIS converges exponentially at rate ~1, so by t = 60 the drift is
        // far below the detection threshold — but at t = 5 it is not.
        let model = sis(2.0, 1.0);
        let m0 = Occupancy::new(vec![0.9, 0.1]).unwrap();
        let short = solve(&model, &m0, 5.0, &OdeOptions::default()).unwrap();
        assert_eq!(short.settled_from(STEADY_DETECT_EPS), None);
        let long = solve(&model, &m0, 60.0, &OdeOptions::default()).unwrap();
        let t_star = long
            .settled_from(STEADY_DETECT_EPS)
            .expect("trajectory settles well before t = 60");
        assert!(t_star > 5.0 && t_star < 60.0, "t_star = {t_star}");
        // The settled stretch sits on the endemic point (0.5, 0.5).
        let near = long
            .settled_near(&[0.5, 0.5], 1e-9)
            .expect("settles onto the endemic point");
        assert!(near <= 60.0);
        // Dimension mismatch and an unreached target report None.
        assert_eq!(long.settled_near(&[0.5], 1e-9), None);
        assert_eq!(long.settled_near(&[0.9, 0.1], 1e-9), None);
        // The settle time flows into the CSL model.
        assert_eq!(long.local_tv_model().unwrap().steady_from(), Some(t_star));
        assert_eq!(short.local_tv_model().unwrap().steady_from(), None);
    }

    #[test]
    fn validates_arguments() {
        let model = sis(2.0, 1.0);
        let wrong = Occupancy::new(vec![1.0]).unwrap();
        assert!(solve(&model, &wrong, 1.0, &OdeOptions::default()).is_err());
        let m0 = Occupancy::new(vec![0.9, 0.1]).unwrap();
        assert!(solve(&model, &m0, -1.0, &OdeOptions::default()).is_err());
        assert!(solve(&model, &m0, f64::NAN, &OdeOptions::default()).is_err());
    }

    #[test]
    fn zero_horizon() {
        let model = sis(2.0, 1.0);
        let m0 = Occupancy::new(vec![0.9, 0.1]).unwrap();
        let sol = solve(&model, &m0, 0.0, &OdeOptions::default()).unwrap();
        assert_eq!(sol.t_end(), 0.0);
        assert!((sol.occupancy_at(0.0)[0] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn batch_per_lane_matches_serial_bitwise() {
        let model = virus([0.9, 0.1, 0.01, 0.3, 0.3]);
        let m0s: Vec<Occupancy> = [[0.85, 0.1, 0.05], [0.2, 0.5, 0.3], [1.0, 0.0, 0.0]]
            .iter()
            .map(|m| Occupancy::new(m.to_vec()).unwrap())
            .collect();
        let options = OdeOptions::default();
        let sweep = solve_batch(&model, &m0s, 20.0, &options, BatchMode::PerLane).unwrap();
        assert_eq!(sweep.stats.detached, 0);
        for (lane, m0) in sweep.lanes.iter().zip(&m0s) {
            let (batched, recovery) = lane.as_ref().unwrap();
            assert_eq!(*recovery, Recovery::None);
            let serial = solve(&model, m0, 20.0, &options).unwrap();
            assert_eq!(batched.trajectory(), serial.trajectory());
        }
        // The real K×B kernel ran: 12-ish calls per accepted step for the
        // whole sweep, far below three serial solves' worth of evals.
        let serial_evals = solve(&model, &m0s[0], 20.0, &options)
            .unwrap()
            .trajectory()
            .stats()
            .rhs_evals;
        assert!(sweep.stats.batch_rhs_calls < 3 * serial_evals);
    }

    #[test]
    fn batch_shared_stays_close_and_cheap() {
        let model = virus([0.9, 0.1, 0.01, 0.3, 0.3]);
        let m0s: Vec<Occupancy> = [[0.85, 0.1, 0.05], [0.2, 0.5, 0.3], [0.6, 0.3, 0.1]]
            .iter()
            .map(|m| Occupancy::new(m.to_vec()).unwrap())
            .collect();
        let options = OdeOptions::default();
        let sweep = solve_batch(&model, &m0s, 15.0, &options, BatchMode::Shared).unwrap();
        let mut max_single = 0;
        for (lane, m0) in sweep.lanes.iter().zip(&m0s) {
            let (batched, _) = lane.as_ref().unwrap();
            let serial = solve(&model, m0, 15.0, &options).unwrap();
            max_single = max_single.max(serial.trajectory().stats().rhs_evals);
            for k in 0..=30 {
                let t = 15.0 * f64::from(k) / 30.0;
                let a = batched.occupancy_at(t);
                let b = serial.occupancy_at(t);
                for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                    assert!((x - y).abs() < 1e-7, "t = {t}: {x} vs {y}");
                }
            }
        }
        // One shared drive for the whole sweep: the cost target is at most
        // 3× a single solve's evaluations, independent of the lane count
        // (the max-over-lanes error norm makes the controller step like the
        // most cautious lane, not like all of them in sequence).
        assert!(
            sweep.stats.batch_rhs_calls <= 3 * max_single,
            "{} batched calls vs {max_single} for one serial solve",
            sweep.stats.batch_rhs_calls
        );
    }

    #[test]
    fn batch_validates_arguments() {
        let model = sis(2.0, 1.0);
        let good = Occupancy::new(vec![0.9, 0.1]).unwrap();
        let bad = Occupancy::new(vec![1.0]).unwrap();
        let options = OdeOptions::default();
        assert!(solve_batch(
            &model,
            &[good.clone(), bad],
            1.0,
            &options,
            BatchMode::PerLane
        )
        .is_err());
        assert!(solve_batch(
            &model,
            std::slice::from_ref(&good),
            -1.0,
            &options,
            BatchMode::PerLane
        )
        .is_err());
        assert!(solve_batch(&model, &[good], f64::NAN, &options, BatchMode::Shared).is_err());
    }
}
