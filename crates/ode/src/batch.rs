//! Batched structure-of-arrays Dopri5: one controller drive propagates
//! many trajectories.
//!
//! The checking workloads are inherently *many-solve*: a `cSat` sweep
//! integrates the same vector field from a grid of initial occupancies, and
//! a daemon cold-start storm re-runs near-identical mean-field solves per
//! `m̄(0)`. This module restructures those solves as one **batch**: state,
//! the seven stage buffers and the accepted-step arenas are `K × B`
//! structure-of-arrays (component-major, lane-minor: component `i` of lane
//! `b` lives at `i * width + b`), and the right-hand side becomes the dense
//! [`OdeSystem::rhs_batch`] kernel evaluated once per stage for the whole
//! batch.
//!
//! Two controller modes ([`BatchMode`]):
//!
//! * [`BatchMode::PerLane`] — every lane keeps its own time, step size,
//!   error estimate and accept/reject decisions, advancing in lockstep
//!   attempts (finished lanes are masked out). Each lane replicates the
//!   scalar [`Dopri5::solve_into`] arithmetic exactly, so per-lane results
//!   are **bitwise identical** to serial solves. This is the engine's
//!   default: every cached artifact derived from a batched trajectory is
//!   indistinguishable from the serial pipeline's.
//! * [`BatchMode::Shared`] — one step-size controller for the whole batch:
//!   shared `t` and `h`, error norm = max over the per-lane scaled RMS
//!   norms, one accept/reject decision per attempt. Lanes resynchronize at
//!   every accepted step (each gets a knot), so dense output is available
//!   per lane as usual. Results agree with serial solves to within the
//!   integration tolerance (property-tested: with both drives run at
//!   rtol 1e-12 / atol 1e-14, endpoint occupancies agree to ≤ 1e-12); in
//!   exchange, a `B`-lane sweep costs roughly *one* solve's worth of
//!   controller drive instead of `B`.
//!
//! **Detach semantics** (PR 5's failure ladder survives batching): a lane
//! whose derivative goes non-finite — or that trips fault injection, or
//! whose own controller underflows in per-lane mode — *detaches* from the
//! batch. In per-lane mode the lane simply leaves the lockstep; column
//! independence of [`OdeSystem::rhs_batch`] guarantees the siblings'
//! columns are untouched. In shared mode the whole batch restarts from
//! `t0` without the offending lane (at most `B` restarts), because the
//! shared controller's step history is contaminated by it — after the
//! restart the survivors are bitwise equal to a batch launched on the
//! healthy subset alone. [`solve_batch_recovering`] then routes every
//! detached lane through the scalar recovery ladder
//! ([`crate::recover::solve_recovering`]) individually.
//!
//! The drive is deliberately backend-agnostic: everything the integrator
//! needs from the model is the `rhs_batch`/`project_batch` pair, which is
//! the seam a SIMD or GPU propagator slots into later.

use crate::dopri::{
    Dopri5, SolverWorkspace, A21, A31, A32, A41, A42, A43, A51, A52, A53, A54, A61, A62, A63, A64,
    A65, B1, B3, B4, B5, B6, C2, C3, C4, C5, E1, E3, E4, E5, E6, E7, FAC_MAX, FAC_MIN, SAFETY,
};
use crate::error::OdeError;
use crate::options::OdeOptions;
use crate::problem::OdeSystem;
use crate::recover::{solve_recovering, Recovery};
use crate::solution::{SolveStats, Trajectory};

/// Step-size controller discipline for a batched solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Independent controllers: per-lane `t`, `h` and accept/reject,
    /// advancing in lockstep attempts. Per-lane results are bitwise
    /// identical to serial [`Dopri5::solve_into`] calls.
    #[default]
    PerLane,
    /// One shared controller: one accept/reject per attempt, error norm =
    /// max over lanes. Cheapest drive; results agree with serial solves to
    /// within the integration tolerance.
    Shared,
}

/// Work counters for one batched solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Number of lanes the batch was launched with.
    pub width: usize,
    /// Batched right-hand-side kernel invocations (each one evaluates every
    /// active lane). This is the batched analogue of the scalar
    /// `rhs_evals` counter — the cost of the *drive* — and the number the
    /// `batch_sweep_*` benchmark kernels report.
    pub batch_rhs_calls: usize,
    /// Lanes that detached from the batch (non-finite derivative, fault
    /// injection, or a per-lane controller failure).
    pub detached: usize,
    /// Shared-mode batch restarts triggered by lane detaches.
    pub restarts: usize,
}

/// Result of [`Dopri5::solve_batch_into`]: one [`Trajectory`] per healthy
/// lane, the detach reason per detached lane, and the drive counters.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-lane results, in input order. A detached lane carries the error
    /// that detached it; [`solve_batch_recovering`] re-solves those lanes
    /// through the scalar recovery ladder.
    pub lanes: Vec<Result<Trajectory, OdeError>>,
    /// Drive counters.
    pub stats: BatchStats,
}

/// Result of [`solve_batch_recovering`]: per-lane trajectory plus the
/// recovery-ladder rung that produced it.
#[derive(Debug)]
pub struct BatchSolution {
    /// Per-lane results in input order. Lanes that stayed in the batch
    /// report [`Recovery::None`]; detached lanes carry whatever rung the
    /// scalar ladder reached, or the ladder's error if it was exhausted.
    pub lanes: Vec<Result<(Trajectory, Recovery), OdeError>>,
    /// Drive counters of the underlying batched solve.
    pub stats: BatchStats,
}

/// Where a lane currently is in the lockstep drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneState {
    Running,
    Finished,
    Detached,
}

/// Reusable scratch for batched integrations: the seven `K × B` stage
/// buffers, the three state buffers, per-lane controller state and the
/// per-lane accepted-step arenas. Allocated once and reused across solves;
/// buffers are resized on demand when the dimension or width changes.
#[derive(Debug, Default)]
pub struct BatchWorkspace {
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
    /// Per-lane evaluation times handed to the batched kernels.
    stage_t: Vec<f64>,
    /// Attempt mask: lanes taking part in the current step attempt.
    step_mask: Vec<bool>,
    /// Accept mask: lanes whose current attempt was accepted.
    accept_mask: Vec<bool>,
    /// FSAL-refresh mask: accepted lanes whose projection moved the point.
    refresh_mask: Vec<bool>,
    lane_t: Vec<f64>,
    lane_h: Vec<f64>,
    lane_err: Vec<f64>,
    steps: Vec<usize>,
    state: Vec<LaneState>,
    errors: Vec<Option<OdeError>>,
    stats: Vec<SolveStats>,
    ts: Vec<Vec<f64>>,
    ys: Vec<Vec<f64>>,
    ds: Vec<Vec<f64>>,
}

impl BatchWorkspace {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    #[must_use]
    pub fn new() -> Self {
        BatchWorkspace::default()
    }

    /// Clears all per-lane state and sizes every buffer for `width` lanes
    /// of dimension `n`.
    fn reset(&mut self, n: usize, width: usize) {
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
            buf.resize(n * width, 0.0);
        }
        self.stage_t.clear();
        self.stage_t.resize(width, 0.0);
        for mask in [
            &mut self.step_mask,
            &mut self.accept_mask,
            &mut self.refresh_mask,
        ] {
            mask.clear();
            mask.resize(width, false);
        }
        self.lane_t.clear();
        self.lane_t.resize(width, 0.0);
        self.lane_h.clear();
        self.lane_h.resize(width, 0.0);
        self.lane_err.clear();
        self.lane_err.resize(width, 0.0);
        self.steps.clear();
        self.steps.resize(width, 0);
        self.state.clear();
        self.state.resize(width, LaneState::Running);
        self.errors.clear();
        self.errors.resize(width, None);
        self.stats.clear();
        self.stats.resize(width, SolveStats::default());
        self.ts.resize_with(width, Vec::new);
        self.ys.resize_with(width, Vec::new);
        self.ds.resize_with(width, Vec::new);
        self.ts.truncate(width);
        self.ys.truncate(width);
        self.ds.truncate(width);
        for b in 0..width {
            self.ts[b].clear();
            self.ys[b].clear();
            self.ds[b].clear();
        }
    }

    fn detach(&mut self, b: usize, error: OdeError) {
        self.state[b] = LaneState::Detached;
        self.errors[b] = Some(error);
        self.step_mask[b] = false;
    }

    /// Appends the current `(t, y[:, b], k1[:, b])` to lane `b`'s arena.
    fn push_knot(&mut self, b: usize, t: f64, n: usize, width: usize) {
        self.ts[b].push(t);
        for i in 0..n {
            self.ys[b].push(self.y[i * width + b]);
            self.ds[b].push(self.k1[i * width + b]);
        }
    }

    /// Moves lane `b`'s arenas into a trajectory.
    fn take_trajectory(&mut self, b: usize, n: usize) -> Result<Trajectory, OdeError> {
        Trajectory::from_flat(
            n,
            std::mem::take(&mut self.ts[b]),
            std::mem::take(&mut self.ys[b]),
            std::mem::take(&mut self.ds[b]),
            self.stats[b],
        )
    }
}

/// `true` when every component of column `b` is finite.
fn column_finite(v: &[f64], n: usize, width: usize, b: usize) -> bool {
    (0..n).all(|i| v[i * width + b].is_finite())
}

/// Copies column `b` of `src` into column `b` of `dst`.
fn copy_column(src: &[f64], dst: &mut [f64], n: usize, width: usize, b: usize) {
    for i in 0..n {
        dst[i * width + b] = src[i * width + b];
    }
}

/// Scalar-identical column inequality test (the FSAL refresh guard): `!=`
/// per component, so a NaN column always counts as moved, exactly like the
/// scalar `ws.y_new != ws.y_stage`.
fn column_ne(a: &[f64], b_buf: &[f64], n: usize, width: usize, b: usize) -> bool {
    (0..n).any(|i| a[i * width + b] != b_buf[i * width + b])
}

impl Dopri5 {
    /// Integrates every lane of `y0s` from `t0` to `t1 >= t0` as one
    /// structure-of-arrays batch. See the [module docs](self) for the
    /// controller modes and detach semantics.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::InvalidArgument`] for a reversed or NaN range, a
    /// lane of the wrong dimension, or invalid options — the whole batch is
    /// rejected, mirroring the scalar validation. Numerical failures never
    /// fail the call: they detach the affected lane, which comes back as
    /// the `Err` entry of [`BatchOutcome::lanes`].
    pub fn solve_batch_into<S: OdeSystem>(
        &self,
        sys: &S,
        t0: f64,
        t1: f64,
        y0s: &[&[f64]],
        mode: BatchMode,
        ws: &mut BatchWorkspace,
    ) -> Result<BatchOutcome, OdeError> {
        self.options().validate()?;
        let n = sys.dim();
        for (b, y0) in y0s.iter().enumerate() {
            if y0.len() != n {
                return Err(OdeError::InvalidArgument(format!(
                    "lane {b} has dimension {}, system expects {n}",
                    y0.len()
                )));
            }
        }
        if !(t1 >= t0) {
            return Err(OdeError::InvalidArgument(format!(
                "integration range [{t0}, {t1}] is reversed or NaN"
            )));
        }
        if y0s.is_empty() {
            return Ok(BatchOutcome {
                lanes: Vec::new(),
                stats: BatchStats::default(),
            });
        }
        match mode {
            BatchMode::PerLane => self.batch_per_lane(sys, t0, t1, y0s, ws),
            BatchMode::Shared => self.batch_shared(sys, t0, t1, y0s, ws),
        }
    }

    /// Per-lane controllers in lockstep: every active lane performs one
    /// step attempt per iteration, with its own `t`, `h` and accept/reject
    /// decision, all batched through `rhs_batch`. Each lane's arithmetic
    /// replicates [`Dopri5::solve_into`] exactly.
    fn batch_per_lane<S: OdeSystem>(
        &self,
        sys: &S,
        t0: f64,
        t1: f64,
        y0s: &[&[f64]],
        ws: &mut BatchWorkspace,
    ) -> Result<BatchOutcome, OdeError> {
        let n = sys.dim();
        let w = y0s.len();
        ws.reset(n, w);
        let mut calls = 0usize;

        self.batch_init(sys, t0, y0s, ws, n, w, &mut calls);
        if t1 == t0 {
            return self.batch_finish(ws, n, w, calls, 0);
        }
        match self.options().h_init {
            Some(h) => {
                let h = h.min(self.options().h_max).min(t1 - t0);
                for b in 0..w {
                    ws.lane_h[b] = h;
                }
            }
            None => self.batch_initial_step(sys, t0, t1, ws, n, w, &mut calls),
        }

        loop {
            // Per-lane pre-step control: step budget and h_min underflow,
            // mirroring the scalar loop head.
            let mut any = false;
            for b in 0..w {
                ws.step_mask[b] = false;
                if ws.state[b] != LaneState::Running {
                    continue;
                }
                ws.steps[b] += 1;
                if ws.steps[b] > self.options().max_steps {
                    ws.detach(
                        b,
                        OdeError::MaxStepsExceeded {
                            steps: self.options().max_steps,
                            t: ws.lane_t[b],
                        },
                    );
                    continue;
                }
                let mut h = ws.lane_h[b]
                    .min(t1 - ws.lane_t[b])
                    .min(self.options().h_max);
                if h < self.options().h_min {
                    if t1 - ws.lane_t[b] > self.options().h_min {
                        ws.detach(b, OdeError::StepSizeTooSmall { t: ws.lane_t[b], h });
                        continue;
                    }
                    h = t1 - ws.lane_t[b];
                }
                ws.lane_h[b] = h;
                ws.step_mask[b] = true;
                any = true;
            }
            if !any {
                break;
            }

            self.batch_stages(sys, ws, n, w, &mut calls);
            for b in 0..w {
                if !ws.step_mask[b] {
                    continue;
                }
                ws.stats[b].rhs_evals += 6;
                if !column_finite(&ws.k7, n, w, b) {
                    ws.detach(
                        b,
                        OdeError::NonFiniteDerivative {
                            t: ws.lane_t[b] + ws.lane_h[b],
                        },
                    );
                }
            }

            for b in 0..w {
                if ws.step_mask[b] {
                    ws.lane_err[b] = self.lane_error(ws, n, w, b);
                }
            }

            // Accept/reject per lane.
            let mut any_refresh = false;
            for b in 0..w {
                ws.accept_mask[b] = false;
                ws.refresh_mask[b] = false;
                if !ws.step_mask[b] {
                    continue;
                }
                if ws.lane_err[b] <= 1.0 || ws.lane_h[b] <= self.options().h_min {
                    ws.accept_mask[b] = true;
                    ws.stats[b].accepted += 1;
                    // Stash the pre-projection state (scalar: y_stage).
                    copy_column(&ws.y_new, &mut ws.y_stage, n, w, b);
                    ws.stage_t[b] = ws.lane_t[b] + ws.lane_h[b];
                } else {
                    ws.stats[b].rejected += 1;
                }
            }
            sys.project_batch(&ws.stage_t, &ws.accept_mask, &mut ws.y_new, w);
            for b in 0..w {
                if ws.accept_mask[b] && column_ne(&ws.y_new, &ws.y_stage, n, w, b) {
                    ws.refresh_mask[b] = true;
                    any_refresh = true;
                }
            }
            if any_refresh {
                sys.rhs_batch(&ws.stage_t, &ws.refresh_mask, &ws.y_new, &mut ws.k7, w);
                calls += 1;
                for b in 0..w {
                    if ws.refresh_mask[b] {
                        ws.stats[b].rhs_evals += 1;
                    }
                }
            }
            for b in 0..w {
                if ws.accept_mask[b] {
                    let t_new = ws.lane_t[b] + ws.lane_h[b];
                    ws.lane_t[b] = t_new;
                    copy_column(&ws.y_new, &mut ws.y, n, w, b);
                    copy_column(&ws.k7, &mut ws.k1, n, w, b);
                    ws.push_knot(b, t_new, n, w);
                    if t_new >= t1 {
                        ws.state[b] = LaneState::Finished;
                    }
                }
            }
            // Step-size update for every lane that attempted a step.
            for b in 0..w {
                if ws.step_mask[b] {
                    let fac = (SAFETY * ws.lane_err[b].powf(-0.2)).clamp(FAC_MIN, FAC_MAX);
                    ws.lane_h[b] *= fac;
                }
            }
        }
        self.batch_finish(ws, n, w, calls, 0)
    }

    /// Shared controller with restart-on-detach: integrate the active lane
    /// subset; whenever a lane's derivative or error estimate goes
    /// non-finite, drop it and restart the whole batch from `t0` so the
    /// survivors' step history is free of the bad lane's influence.
    fn batch_shared<S: OdeSystem>(
        &self,
        sys: &S,
        t0: f64,
        t1: f64,
        y0s: &[&[f64]],
        ws: &mut BatchWorkspace,
    ) -> Result<BatchOutcome, OdeError> {
        let w = y0s.len();
        let mut lanes: Vec<Option<Result<Trajectory, OdeError>>> = (0..w).map(|_| None).collect();
        let mut active: Vec<usize> = (0..w).collect();
        let mut calls = 0usize;
        let mut restarts = 0usize;
        while !active.is_empty() {
            let sub: Vec<&[f64]> = active.iter().map(|&slot| y0s[slot]).collect();
            match self.shared_attempt(sys, t0, t1, &sub, ws, &mut calls) {
                SharedRun::Done(trajectories) => {
                    for (&slot, trajectory) in active.iter().zip(trajectories) {
                        lanes[slot] = Some(Ok(trajectory));
                    }
                    break;
                }
                SharedRun::Detach { lane, error } => {
                    let slot = active.remove(lane);
                    lanes[slot] = Some(Err(error));
                    if !active.is_empty() {
                        restarts += 1;
                    }
                }
                SharedRun::Fail(error) => {
                    for &slot in &active {
                        lanes[slot] = Some(Err(error.clone()));
                    }
                    break;
                }
            }
        }
        let lanes: Vec<Result<Trajectory, OdeError>> = lanes
            .into_iter()
            .map(|lane| lane.unwrap_or_else(|| unreachable!("every lane is resolved")))
            .collect();
        let detached = lanes.iter().filter(|lane| lane.is_err()).count();
        Ok(BatchOutcome {
            lanes,
            stats: BatchStats {
                width: w,
                batch_rhs_calls: calls,
                detached,
                restarts,
            },
        })
    }

    /// One shared-controller run over the lane subset `y0s`. Returns the
    /// finished trajectories, the first lane that must detach, or a
    /// whole-batch controller failure.
    fn shared_attempt<S: OdeSystem>(
        &self,
        sys: &S,
        t0: f64,
        t1: f64,
        y0s: &[&[f64]],
        ws: &mut BatchWorkspace,
        calls: &mut usize,
    ) -> SharedRun {
        let n = sys.dim();
        let w = y0s.len();
        ws.reset(n, w);
        self.batch_init(sys, t0, y0s, ws, n, w, calls);
        for b in 0..w {
            if ws.state[b] == LaneState::Detached {
                let error = ws.errors[b].clone().unwrap_or_else(|| unreachable!());
                return SharedRun::Detach { lane: b, error };
            }
        }
        let take_all = |ws: &mut BatchWorkspace| -> SharedRun {
            let mut out = Vec::with_capacity(w);
            for b in 0..w {
                match ws.take_trajectory(b, n) {
                    Ok(trajectory) => out.push(trajectory),
                    Err(e) => return SharedRun::Fail(e),
                }
            }
            SharedRun::Done(out)
        };
        if t1 == t0 {
            return take_all(ws);
        }
        let mut h = match self.options().h_init {
            Some(h) => h.min(self.options().h_max).min(t1 - t0),
            None => {
                self.batch_initial_step(sys, t0, t1, ws, n, w, calls);
                // The shared controller starts at the most cautious lane's
                // automatic step. NaN-ignoring min, like the scalar chain.
                let mut h = f64::INFINITY;
                for b in 0..w {
                    h = h.min(ws.lane_h[b]);
                }
                h
            }
        };
        let mut t = t0;
        let mut steps = 0usize;
        while t < t1 {
            steps += 1;
            if steps > self.options().max_steps {
                return SharedRun::Fail(OdeError::MaxStepsExceeded {
                    steps: self.options().max_steps,
                    t,
                });
            }
            h = h.min(t1 - t).min(self.options().h_max);
            if h < self.options().h_min {
                if t1 - t > self.options().h_min {
                    return SharedRun::Fail(OdeError::StepSizeTooSmall { t, h });
                }
                h = t1 - t;
            }
            for b in 0..w {
                ws.lane_t[b] = t;
                ws.lane_h[b] = h;
                ws.step_mask[b] = true;
            }
            self.batch_stages(sys, ws, n, w, calls);
            for b in 0..w {
                ws.stats[b].rhs_evals += 6;
                if !column_finite(&ws.k7, n, w, b) {
                    return SharedRun::Detach {
                        lane: b,
                        error: OdeError::NonFiniteDerivative { t: t + h },
                    };
                }
            }
            // Shared error norm: max over the per-lane scaled RMS norms. A
            // non-finite per-lane norm detaches that lane (its stages are
            // poisoned even though k7 came back finite).
            let mut err = 0.0_f64;
            for b in 0..w {
                let lane_err = self.lane_error(ws, n, w, b);
                if !lane_err.is_finite() {
                    return SharedRun::Detach {
                        lane: b,
                        error: OdeError::NonFiniteDerivative { t: t + h },
                    };
                }
                err = err.max(lane_err);
            }
            if err <= 1.0 || h <= self.options().h_min {
                let t_new = t + h;
                for b in 0..w {
                    ws.stats[b].accepted += 1;
                    copy_column(&ws.y_new, &mut ws.y_stage, n, w, b);
                    ws.stage_t[b] = t_new;
                    ws.accept_mask[b] = true;
                }
                sys.project_batch(&ws.stage_t, &ws.accept_mask, &mut ws.y_new, w);
                let mut any_refresh = false;
                for b in 0..w {
                    ws.refresh_mask[b] = column_ne(&ws.y_new, &ws.y_stage, n, w, b);
                    any_refresh |= ws.refresh_mask[b];
                }
                if any_refresh {
                    sys.rhs_batch(&ws.stage_t, &ws.refresh_mask, &ws.y_new, &mut ws.k7, w);
                    *calls += 1;
                    for b in 0..w {
                        if ws.refresh_mask[b] {
                            ws.stats[b].rhs_evals += 1;
                        }
                    }
                }
                t = t_new;
                for b in 0..w {
                    copy_column(&ws.y_new, &mut ws.y, n, w, b);
                    copy_column(&ws.k7, &mut ws.k1, n, w, b);
                    ws.push_knot(b, t, n, w);
                }
            } else {
                for b in 0..w {
                    ws.stats[b].rejected += 1;
                }
            }
            let fac = (SAFETY * err.powf(-0.2)).clamp(FAC_MIN, FAC_MAX);
            h *= fac;
        }
        take_all(ws)
    }

    /// Common batch initialisation: seed the state columns, project,
    /// evaluate `k1`, detach lanes whose derivative is already non-finite,
    /// and record the initial knot for the healthy ones.
    #[allow(clippy::too_many_arguments)]
    fn batch_init<S: OdeSystem>(
        &self,
        sys: &S,
        t0: f64,
        y0s: &[&[f64]],
        ws: &mut BatchWorkspace,
        n: usize,
        w: usize,
        calls: &mut usize,
    ) {
        for (b, y0) in y0s.iter().enumerate() {
            for i in 0..n {
                ws.y[i * w + b] = y0[i];
            }
            ws.stage_t[b] = t0;
            ws.step_mask[b] = true;
        }
        sys.project_batch(&ws.stage_t, &ws.step_mask, &mut ws.y, w);
        sys.rhs_batch(&ws.stage_t, &ws.step_mask, &ws.y, &mut ws.k1, w);
        *calls += 1;
        for b in 0..w {
            ws.stats[b].rhs_evals += 1;
            ws.lane_t[b] = t0;
            if column_finite(&ws.k1, n, w, b) {
                ws.push_knot(b, t0, n, w);
            } else {
                ws.detach(b, OdeError::NonFiniteDerivative { t: t0 });
            }
        }
    }

    /// Batched Hairer initial-step selection: every running lane runs the
    /// scalar algorithm's arithmetic on its own column, with the Euler
    /// probe evaluated as one batched call. Results land in `ws.lane_h`.
    #[allow(clippy::too_many_arguments)]
    fn batch_initial_step<S: OdeSystem>(
        &self,
        sys: &S,
        t0: f64,
        t1: f64,
        ws: &mut BatchWorkspace,
        n: usize,
        w: usize,
        calls: &mut usize,
    ) {
        let rtol = self.options().rtol;
        let atol = self.options().atol;
        // Scaled RMS of column `b` of `v` with the scalar accumulation
        // order (scale_i = atol + rtol * |y0_i|).
        let rms_col = |v: &[f64], y: &[f64], b: usize| -> f64 {
            let mut s = 0.0_f64;
            for i in 0..n {
                let scale = atol + rtol * y[i * w + b].abs();
                let q = v[i * w + b] / scale;
                s += q * q;
            }
            (s / n as f64).sqrt()
        };
        for b in 0..w {
            ws.step_mask[b] = ws.state[b] == LaneState::Running;
            if !ws.step_mask[b] {
                continue;
            }
            let d0 = rms_col(&ws.y, &ws.y, b);
            let d1 = rms_col(&ws.k1, &ws.y, b);
            let h0 = if d0 < 1e-5 || d1 < 1e-5 {
                1e-6
            } else {
                0.01 * d0 / d1
            };
            // Stash h0 and d1 in the controller scratch until the probe
            // comes back.
            ws.lane_h[b] = h0;
            ws.lane_err[b] = d1;
            for i in 0..n {
                ws.y_stage[i * w + b] = ws.y[i * w + b] + h0 * ws.k1[i * w + b];
            }
            ws.stage_t[b] = t0 + h0;
        }
        sys.rhs_batch(&ws.stage_t, &ws.step_mask, &ws.y_stage, &mut ws.k2, w);
        *calls += 1;
        for b in 0..w {
            if !ws.step_mask[b] {
                continue;
            }
            ws.stats[b].rhs_evals += 1;
            let h0 = ws.lane_h[b];
            let d1 = ws.lane_err[b];
            let mut s = 0.0_f64;
            for i in 0..n {
                let scale = atol + rtol * ws.y[i * w + b].abs();
                let q = (ws.k2[i * w + b] - ws.k1[i * w + b]) / scale;
                s += q * q;
            }
            let d2 = (s / n as f64).sqrt() / h0;
            let max_d = d1.max(d2);
            let h1 = if max_d <= 1e-15 {
                (h0 * 1e-3).max(1e-6)
            } else {
                (0.01 / max_d).powf(0.2)
            };
            ws.lane_h[b] = (100.0 * h0)
                .min(h1)
                .min(t1 - t0)
                .min(self.options().h_max)
                .max(self.options().h_min);
        }
    }

    /// The six stage evaluations plus the FSAL stage of one attempt for
    /// every lane with `step_mask` set, at per-lane `t`/`h`. Exactly the
    /// scalar stage arithmetic per column.
    fn batch_stages<S: OdeSystem>(
        &self,
        sys: &S,
        ws: &mut BatchWorkspace,
        n: usize,
        w: usize,
        calls: &mut usize,
    ) {
        macro_rules! stage {
            ($c:expr, $dst:expr, $expr:expr) => {{
                for i in 0..n {
                    let r = i * w;
                    for b in 0..w {
                        if !ws.step_mask[b] {
                            continue;
                        }
                        let h = ws.lane_h[b];
                        ws.y_stage[r + b] = ws.y[r + b] + h * $expr(ws, r + b);
                    }
                }
                for b in 0..w {
                    if ws.step_mask[b] {
                        ws.stage_t[b] = ws.lane_t[b] + $c * ws.lane_h[b];
                    }
                }
                sys.rhs_batch(&ws.stage_t, &ws.step_mask, &ws.y_stage, $dst, w);
                *calls += 1;
            }};
        }
        // Stage 2. Written out (not via the macro) because the scalar code
        // computes `y + h * A21 * k1` — left-associated, `(h * A21) * k1` —
        // and bitwise equivalence requires the same rounding.
        for i in 0..n {
            let r = i * w;
            for b in 0..w {
                if !ws.step_mask[b] {
                    continue;
                }
                ws.y_stage[r + b] = ws.y[r + b] + ws.lane_h[b] * A21 * ws.k1[r + b];
            }
        }
        for b in 0..w {
            if ws.step_mask[b] {
                ws.stage_t[b] = ws.lane_t[b] + C2 * ws.lane_h[b];
            }
        }
        sys.rhs_batch(&ws.stage_t, &ws.step_mask, &ws.y_stage, &mut ws.k2, w);
        *calls += 1;
        // Stage 3.
        stage!(C3, &mut ws.k3, |ws: &BatchWorkspace, j: usize| A31
            * ws.k1[j]
            + A32 * ws.k2[j]);
        // Stage 4.
        stage!(C4, &mut ws.k4, |ws: &BatchWorkspace, j: usize| A41
            * ws.k1[j]
            + A42 * ws.k2[j]
            + A43 * ws.k3[j]);
        // Stage 5.
        stage!(C5, &mut ws.k5, |ws: &BatchWorkspace, j: usize| A51
            * ws.k1[j]
            + A52 * ws.k2[j]
            + A53 * ws.k3[j]
            + A54 * ws.k4[j]);
        // Stage 6 (c = 1).
        stage!(1.0, &mut ws.k6, |ws: &BatchWorkspace, j: usize| A61
            * ws.k1[j]
            + A62 * ws.k2[j]
            + A63 * ws.k3[j]
            + A64 * ws.k4[j]
            + A65 * ws.k5[j]);
        // 5th-order solution (also stage 7 location).
        for i in 0..n {
            let r = i * w;
            for b in 0..w {
                if !ws.step_mask[b] {
                    continue;
                }
                ws.y_new[r + b] = ws.y[r + b]
                    + ws.lane_h[b]
                        * (B1 * ws.k1[r + b]
                            + B3 * ws.k3[r + b]
                            + B4 * ws.k4[r + b]
                            + B5 * ws.k5[r + b]
                            + B6 * ws.k6[r + b]);
            }
        }
        for b in 0..w {
            if ws.step_mask[b] {
                ws.stage_t[b] = ws.lane_t[b] + ws.lane_h[b];
            }
        }
        sys.rhs_batch(&ws.stage_t, &ws.step_mask, &ws.y_new, &mut ws.k7, w);
        *calls += 1;
    }

    /// Scaled RMS error estimate of lane `b`'s current attempt, with the
    /// scalar accumulation order.
    fn lane_error(&self, ws: &BatchWorkspace, n: usize, w: usize, b: usize) -> f64 {
        let h = ws.lane_h[b];
        let mut err_sq = 0.0_f64;
        for i in 0..n {
            let j = i * w + b;
            let err_i = h
                * (E1 * ws.k1[j]
                    + E3 * ws.k3[j]
                    + E4 * ws.k4[j]
                    + E5 * ws.k5[j]
                    + E6 * ws.k6[j]
                    + E7 * ws.k7[j]);
            let scale =
                self.options().atol + self.options().rtol * ws.y[j].abs().max(ws.y_new[j].abs());
            let q = err_i / scale;
            err_sq += q * q;
        }
        (err_sq / n as f64).sqrt()
    }

    /// Collects per-lane trajectories/errors into the outcome.
    fn batch_finish(
        &self,
        ws: &mut BatchWorkspace,
        n: usize,
        w: usize,
        calls: usize,
        restarts: usize,
    ) -> Result<BatchOutcome, OdeError> {
        let mut lanes = Vec::with_capacity(w);
        let mut detached = 0usize;
        for b in 0..w {
            if ws.state[b] == LaneState::Detached {
                detached += 1;
                let error = ws.errors[b].clone().unwrap_or_else(|| unreachable!());
                lanes.push(Err(error));
            } else {
                lanes.push(ws.take_trajectory(b, n));
            }
        }
        Ok(BatchOutcome {
            lanes,
            stats: BatchStats {
                width: w,
                batch_rhs_calls: calls,
                detached,
                restarts,
            },
        })
    }
}

/// Outcome of one shared-controller run.
enum SharedRun {
    Done(Vec<Trajectory>),
    Detach { lane: usize, error: OdeError },
    Fail(OdeError),
}

/// Integrates every lane through the batched drive, then routes detached
/// lanes through the scalar recovery ladder
/// ([`crate::recover::solve_recovering`]) individually — so a faulty lane
/// degrades exactly as a scalar solve would, while its siblings keep their
/// batch results.
///
/// # Errors
///
/// Returns [`OdeError::InvalidArgument`] for invalid options, a reversed
/// range or a mis-sized lane. Per-lane numerical failures surface as the
/// `Err` entries of [`BatchSolution::lanes`] (the scalar ladder's primary
/// error, matching what a serial [`solve_recovering`] call would report).
#[allow(clippy::too_many_arguments)]
pub fn solve_batch_recovering<S: OdeSystem>(
    sys: &S,
    t0: f64,
    t1: f64,
    y0s: &[&[f64]],
    options: &OdeOptions,
    mode: BatchMode,
    ws: &mut BatchWorkspace,
    scalar_ws: &mut SolverWorkspace,
) -> Result<BatchSolution, OdeError> {
    let outcome = Dopri5::new(*options).solve_batch_into(sys, t0, t1, y0s, mode, ws)?;
    let mut lanes = Vec::with_capacity(outcome.lanes.len());
    for (b, lane) in outcome.lanes.into_iter().enumerate() {
        match lane {
            Ok(trajectory) => lanes.push(Ok((trajectory, Recovery::None))),
            // The detach reason is advisory; the ladder re-runs the scalar
            // primary itself, so its verdict (and error, on exhaustion) is
            // exactly the serial one.
            Err(_) => lanes.push(solve_recovering(sys, t0, t1, y0s[b], options, scalar_ws)),
        }
    }
    Ok(BatchSolution {
        lanes,
        stats: outcome.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{FnSystem, ProjectedFnSystem};

    fn decay() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(2, |_t, y: &[f64], dy: &mut [f64]| {
            dy[0] = -y[0];
            dy[1] = -2.0 * y[1] + 0.1 * y[0];
        })
    }

    fn oscillator() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(2, |_t, y: &[f64], dy: &mut [f64]| {
            dy[0] = y[1];
            dy[1] = -y[0];
        })
    }

    /// A projected system exercising the FSAL-refresh path: the projection
    /// renormalizes onto the simplex, so accepted points move.
    #[allow(clippy::type_complexity)]
    fn projected() -> ProjectedFnSystem<impl Fn(f64, &[f64], &mut [f64]), impl Fn(f64, &mut [f64])>
    {
        ProjectedFnSystem::new(
            3,
            |_t, y: &[f64], dy: &mut [f64]| {
                dy[0] = -0.7 * y[0] + 0.2 * y[1];
                dy[1] = 0.7 * y[0] - 0.5 * y[1];
                dy[2] = 0.3 * y[1] - 0.1 * y[2];
            },
            |_t, y: &mut [f64]| {
                let s: f64 = y.iter().sum();
                if s > 0.0 {
                    for v in y.iter_mut() {
                        *v /= s;
                    }
                }
            },
        )
    }

    /// Wrapper that keeps the scalar path clean but poisons one lane's
    /// column in the batched kernel with NaN — the shape fault injection
    /// takes when it fires inside a batch.
    struct PoisonBatch<S> {
        inner: S,
        poison: usize,
    }

    impl<S: OdeSystem> OdeSystem for PoisonBatch<S> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }

        fn rhs(&self, t: f64, y: &[f64], dy: &mut [f64]) {
            self.inner.rhs(t, y, dy);
        }

        fn project(&self, t: f64, y: &mut [f64]) {
            self.inner.project(t, y);
        }

        fn rhs_batch(&self, ts: &[f64], active: &[bool], y: &[f64], dy: &mut [f64], width: usize) {
            self.inner.rhs_batch(ts, active, y, dy, width);
            if self.poison < width && active[self.poison] {
                for i in 0..self.dim() {
                    dy[i * width + self.poison] = f64::NAN;
                }
            }
        }
    }

    fn solver() -> Dopri5 {
        Dopri5::new(OdeOptions::default())
    }

    const Y0S: [[f64; 2]; 3] = [[1.0, 0.5], [0.3, -0.2], [2.0, 1.0]];

    fn lanes3() -> Vec<&'static [f64]> {
        Y0S.iter().map(|y0| y0.as_slice()).collect()
    }

    #[test]
    fn per_lane_batch_is_bitwise_identical_to_serial() {
        let sys = decay();
        let mut ws = BatchWorkspace::new();
        let out = solver()
            .solve_batch_into(&sys, 0.0, 3.0, &lanes3(), BatchMode::PerLane, &mut ws)
            .unwrap();
        assert_eq!(out.stats.width, 3);
        assert_eq!(out.stats.detached, 0);
        for (lane, y0) in out.lanes.iter().zip(Y0S.iter()) {
            let serial = solver().solve(&sys, 0.0, 3.0, y0).unwrap();
            // Trajectory equality is exact: same knots, same Hermite data,
            // same SolveStats.
            assert_eq!(lane.as_ref().unwrap(), &serial);
        }
    }

    #[test]
    fn per_lane_projection_refresh_matches_serial() {
        let sys = projected();
        let y0s: [[f64; 3]; 2] = [[0.9, 0.05, 0.05], [0.2, 0.5, 0.3]];
        let refs: Vec<&[f64]> = y0s.iter().map(|y0| y0.as_slice()).collect();
        let mut ws = BatchWorkspace::new();
        let out = solver()
            .solve_batch_into(&sys, 0.0, 5.0, &refs, BatchMode::PerLane, &mut ws)
            .unwrap();
        for (lane, y0) in out.lanes.iter().zip(y0s.iter()) {
            let serial = solver().solve(&sys, 0.0, 5.0, y0).unwrap();
            assert_eq!(lane.as_ref().unwrap(), &serial);
        }
    }

    #[test]
    fn width_one_shared_batch_is_bitwise_identical_to_serial() {
        let sys = oscillator();
        let y0 = [1.0, 0.0];
        let mut ws = BatchWorkspace::new();
        let out = solver()
            .solve_batch_into(&sys, 0.0, 6.0, &[&y0], BatchMode::Shared, &mut ws)
            .unwrap();
        let serial = solver().solve(&sys, 0.0, 6.0, &y0).unwrap();
        assert_eq!(out.lanes[0].as_ref().unwrap(), &serial);
    }

    #[test]
    fn shared_batch_agrees_with_serial_within_tolerance() {
        let sys = oscillator();
        let mut ws = BatchWorkspace::new();
        let out = solver()
            .solve_batch_into(&sys, 0.0, 6.0, &lanes3(), BatchMode::Shared, &mut ws)
            .unwrap();
        for (lane, y0) in out.lanes.iter().zip(Y0S.iter()) {
            let batched = lane.as_ref().unwrap();
            let serial = solver().solve(&sys, 0.0, 6.0, y0).unwrap();
            for k in 0..=60 {
                let t = 0.1 * k as f64;
                let a = batched.eval(t);
                let b = serial.eval(t);
                for (x, y) in a.iter().zip(b.iter()) {
                    // Sampled between knots, the dominant term is the two
                    // interpolants' O(h^4) Hermite error (the knot grids
                    // differ), not the controllers' rtol.
                    assert!((x - y).abs() <= 1e-7, "t={t}: {x} vs {y}");
                }
            }
        }
        // The whole sweep rode one controller: the drive cost is one
        // solve's worth of batched calls, far below three serial solves.
        let serial_evals = solver()
            .solve(&sys, 0.0, 6.0, &Y0S[0])
            .unwrap()
            .stats()
            .rhs_evals;
        assert!(out.stats.batch_rhs_calls <= 2 * serial_evals);
    }

    #[test]
    fn zero_length_interval_returns_initial_knot_per_lane() {
        let sys = decay();
        let mut ws = BatchWorkspace::new();
        for mode in [BatchMode::PerLane, BatchMode::Shared] {
            let out = solver()
                .solve_batch_into(&sys, 1.5, 1.5, &lanes3(), mode, &mut ws)
                .unwrap();
            for (lane, y0) in out.lanes.iter().zip(Y0S.iter()) {
                let tr = lane.as_ref().unwrap();
                assert_eq!(tr.t_start(), 1.5);
                assert_eq!(tr.t_end(), 1.5);
                assert_eq!(tr.eval(1.5), y0.to_vec());
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let sys = decay();
        let mut ws = BatchWorkspace::new();
        let out = solver()
            .solve_batch_into(&sys, 0.0, 1.0, &[], BatchMode::PerLane, &mut ws)
            .unwrap();
        assert!(out.lanes.is_empty());
        assert_eq!(out.stats.batch_rhs_calls, 0);
    }

    #[test]
    fn invalid_arguments_reject_the_whole_batch() {
        let sys = decay();
        let mut ws = BatchWorkspace::new();
        let bad_dim = [1.0, 2.0, 3.0];
        let good = [1.0, 2.0];
        for (t0, t1, y0s) in [
            (1.0, 0.0, vec![good.as_slice()]),
            (0.0, f64::NAN, vec![good.as_slice()]),
            (0.0, 1.0, vec![good.as_slice(), bad_dim.as_slice()]),
        ] {
            for mode in [BatchMode::PerLane, BatchMode::Shared] {
                let err = solver()
                    .solve_batch_into(&sys, t0, t1, &y0s, mode, &mut ws)
                    .unwrap_err();
                assert!(matches!(err, OdeError::InvalidArgument(_)), "{err:?}");
            }
        }
    }

    #[test]
    fn per_lane_poisoned_lane_detaches_without_touching_siblings() {
        let sys = PoisonBatch {
            inner: decay(),
            poison: 1,
        };
        let mut ws = BatchWorkspace::new();
        let out = solver()
            .solve_batch_into(&sys, 0.0, 3.0, &lanes3(), BatchMode::PerLane, &mut ws)
            .unwrap();
        assert_eq!(out.stats.detached, 1);
        assert!(matches!(
            out.lanes[1],
            Err(OdeError::NonFiniteDerivative { .. })
        ));
        for b in [0usize, 2] {
            let serial = solver().solve(&sys.inner, 0.0, 3.0, &Y0S[b]).unwrap();
            assert_eq!(out.lanes[b].as_ref().unwrap(), &serial);
        }
    }

    /// Wrapper that poisons the column whose state matches a signature
    /// bitwise — which only happens at `t0`, where the state *is* the
    /// initial condition. Unlike a column index, the signature tracks the
    /// lane across shared-mode restarts (survivors never match it).
    struct PoisonSignature<S> {
        inner: S,
        sig: [f64; 2],
    }

    impl<S: OdeSystem> OdeSystem for PoisonSignature<S> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }

        fn rhs(&self, t: f64, y: &[f64], dy: &mut [f64]) {
            self.inner.rhs(t, y, dy);
        }

        fn rhs_batch(&self, ts: &[f64], active: &[bool], y: &[f64], dy: &mut [f64], width: usize) {
            self.inner.rhs_batch(ts, active, y, dy, width);
            for b in 0..width {
                if active[b] && y[b] == self.sig[0] && y[width + b] == self.sig[1] {
                    for i in 0..self.dim() {
                        dy[i * width + b] = f64::NAN;
                    }
                }
            }
        }
    }

    #[test]
    fn shared_poisoned_lane_triggers_restart_without_it() {
        let sys = PoisonSignature {
            inner: oscillator(),
            sig: Y0S[1],
        };
        let mut ws = BatchWorkspace::new();
        let out = solver()
            .solve_batch_into(&sys, 0.0, 4.0, &lanes3(), BatchMode::Shared, &mut ws)
            .unwrap();
        assert_eq!(out.stats.detached, 1);
        assert_eq!(out.stats.restarts, 1);
        assert!(out.lanes[1].is_err());
        // Survivors are bitwise equal to a fresh shared batch launched on
        // the healthy subset alone: the restart purged the bad lane's
        // influence on the controller history.
        let healthy: Vec<&[f64]> = vec![&Y0S[0], &Y0S[2]];
        let mut ws2 = BatchWorkspace::new();
        let clean = solver()
            .solve_batch_into(&sys.inner, 0.0, 4.0, &healthy, BatchMode::Shared, &mut ws2)
            .unwrap();
        assert_eq!(
            out.lanes[0].as_ref().unwrap(),
            clean.lanes[0].as_ref().unwrap()
        );
        assert_eq!(
            out.lanes[2].as_ref().unwrap(),
            clean.lanes[1].as_ref().unwrap()
        );
    }

    #[test]
    fn recovering_batch_routes_detached_lane_through_scalar_ladder() {
        let sys = PoisonBatch {
            inner: decay(),
            poison: 0,
        };
        let options = OdeOptions::default();
        let mut ws = BatchWorkspace::new();
        let mut scalar_ws = SolverWorkspace::new();
        let sol = solve_batch_recovering(
            &sys,
            0.0,
            3.0,
            &lanes3(),
            &options,
            BatchMode::PerLane,
            &mut ws,
            &mut scalar_ws,
        )
        .unwrap();
        assert_eq!(sol.stats.detached, 1);
        // The poisoned lane's scalar rhs is clean, so the ladder's primary
        // rung succeeds: the lane comes back bitwise equal to a serial
        // solve, marked un-recovered (primary rung).
        let (tr, recovery) = sol.lanes[0].as_ref().unwrap();
        assert_eq!(*recovery, Recovery::None);
        let serial = solver().solve(&sys.inner, 0.0, 3.0, &Y0S[0]).unwrap();
        assert_eq!(tr, &serial);
        // Healthy lanes kept their batch results.
        for b in [1usize, 2] {
            let (tr, recovery) = sol.lanes[b].as_ref().unwrap();
            assert_eq!(*recovery, Recovery::None);
            let serial = solver().solve(&sys.inner, 0.0, 3.0, &Y0S[b]).unwrap();
            assert_eq!(tr, &serial);
        }
    }

    #[test]
    fn workspace_reuse_across_widths_is_clean() {
        let sys = decay();
        let mut ws = BatchWorkspace::new();
        let wide = solver()
            .solve_batch_into(&sys, 0.0, 2.0, &lanes3(), BatchMode::PerLane, &mut ws)
            .unwrap();
        let narrow = solver()
            .solve_batch_into(&sys, 0.0, 2.0, &[&Y0S[1]], BatchMode::PerLane, &mut ws)
            .unwrap();
        assert_eq!(
            narrow.lanes[0].as_ref().unwrap(),
            wide.lanes[1].as_ref().unwrap()
        );
    }

    #[test]
    fn h_init_is_honored_per_lane() {
        let sys = decay();
        let options = OdeOptions {
            h_init: Some(0.05),
            ..OdeOptions::default()
        };
        let mut ws = BatchWorkspace::new();
        let out = Dopri5::new(options)
            .solve_batch_into(&sys, 0.0, 1.0, &lanes3(), BatchMode::PerLane, &mut ws)
            .unwrap();
        for (lane, y0) in out.lanes.iter().zip(Y0S.iter()) {
            let serial = Dopri5::new(options).solve(&sys, 0.0, 1.0, y0).unwrap();
            assert_eq!(lane.as_ref().unwrap(), &serial);
        }
    }
}
