//! Time-inhomogeneous CTMCs and the Kolmogorov equations.
//!
//! Along a mean-field trajectory the local model's generator varies with
//! time: `Q(t) = Q(m̄(t))`. This module provides the generator abstraction
//! and the three integrations the paper's algorithms are built on:
//!
//! * [`forward_distribution`] — `dπ/dt = π(t)·Q(t)` for a distribution;
//! * [`transition_matrix`] — the forward Kolmogorov equation for the full
//!   probability matrix `Π'(t', t'+T)` (Eq. 5 of the paper);
//! * [`propagate_window`] — the combined forward/backward equation
//!   `dΠ'(t, t+T)/dt = -Q(t)·Π' + Π'·Q(t+T)` (Eq. 6, also used for `Υ` in
//!   Eq. 12), which slides a fixed-duration window through time.

use std::cell::RefCell;

use mfcsl_math::Matrix;
use mfcsl_ode::recover::solve_recovering;
use mfcsl_ode::{OdeOptions, SolverWorkspace, Trajectory};

use crate::{Ctmc, CtmcError};

/// A time-varying infinitesimal generator `Q(t)`.
///
/// Implementations must produce a valid generator at every queried time:
/// non-negative off-diagonal entries with the diagonal equal to minus the
/// row sum. (The integrators do not re-validate per evaluation; the checker
/// layer validates at construction.)
pub trait TimeVaryingGenerator {
    /// Number of states.
    fn n_states(&self) -> usize;

    /// Writes `Q(t)` (including the diagonal) into `q`.
    ///
    /// Implementations may assume `q` is `n_states × n_states`.
    fn write_generator(&self, t: f64, q: &mut Matrix);

    /// Convenience: materializes `Q(t)` into a fresh matrix.
    fn generator_at(&self, t: f64) -> Matrix {
        let n = self.n_states();
        let mut q = Matrix::zeros(n, n);
        self.write_generator(t, &mut q);
        q
    }

    /// The fixed off-diagonal transition topology of `Q(t)`, when the
    /// generator knows it: parallel `(from, to)` index slices, constant in
    /// time (only the rates vary). `None` — the default — means the
    /// topology is unknown or dense, and callers must fall back to
    /// [`write_generator`](TimeVaryingGenerator::write_generator).
    ///
    /// A generator reporting `Some` promises that every off-diagonal entry
    /// of `Q(t)` outside the pattern is zero at *every* `t`, and must also
    /// implement [`write_rates`](TimeVaryingGenerator::write_rates).
    fn sparsity(&self) -> Option<(&[usize], &[usize])> {
        None
    }

    /// Writes the off-diagonal rates at `t` into `rates`, in the order of
    /// the [`sparsity`](TimeVaryingGenerator::sparsity) pattern. Only
    /// meaningful when `sparsity()` returns `Some`; the default is a no-op.
    ///
    /// Implementations may assume `rates.len()` equals the pattern length,
    /// and must fully overwrite `rates` with finite, non-negative values
    /// (clamping invalid evaluations to zero, like the dense writers do).
    fn write_rates(&self, _t: f64, _rates: &mut [f64]) {}
}

/// A [`TimeVaryingGenerator`] built from a closure.
pub struct FnGenerator<F> {
    n: usize,
    f: F,
}

impl<F: Fn(f64, &mut Matrix)> FnGenerator<F> {
    /// Wraps the closure `f(t, q)` writing the generator at time `t`.
    pub fn new(n: usize, f: F) -> Self {
        FnGenerator { n, f }
    }
}

impl<F: Fn(f64, &mut Matrix)> TimeVaryingGenerator for FnGenerator<F> {
    fn n_states(&self) -> usize {
        self.n
    }

    fn write_generator(&self, t: f64, q: &mut Matrix) {
        (self.f)(t, q);
    }
}

impl<F> std::fmt::Debug for FnGenerator<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnGenerator").field("n", &self.n).finish()
    }
}

/// A constant generator — the time-homogeneous special case, used to
/// cross-validate the inhomogeneous algorithms against uniformization.
#[derive(Debug, Clone)]
pub struct ConstGenerator {
    q: Matrix,
}

impl ConstGenerator {
    /// Wraps the generator of a time-homogeneous chain.
    #[must_use]
    pub fn new(ctmc: &Ctmc) -> Self {
        ConstGenerator {
            q: ctmc.generator().clone(),
        }
    }

    /// Wraps an explicit generator matrix.
    #[must_use]
    pub fn from_matrix(q: Matrix) -> Self {
        ConstGenerator { q }
    }
}

impl TimeVaryingGenerator for ConstGenerator {
    fn n_states(&self) -> usize {
        self.q.rows()
    }

    fn write_generator(&self, _t: f64, q: &mut Matrix) {
        q.as_mut_slice().copy_from_slice(self.q.as_slice());
    }
}

/// One memoized generator evaluation: `Q(t)` — and its transpose, so the
/// matrix right-hand sides can gather columns of `Q` from contiguous rows of
/// `Qᵀ` — cached by the exact bit pattern of `t`.
///
/// Dopri5 stage times repeat: stages 6 and 7 both sit at `t + h`, and the
/// FSAL refresh plus the next step's first stage re-query the accepted time,
/// so caching by stage time removes roughly a third of all generator
/// evaluations without changing a single produced value (the generator is a
/// pure function of `t`). The matrices are allocated once per solve instead
/// of once per right-hand-side evaluation.
struct QSlot {
    t_bits: Option<u64>,
    q: Matrix,
    qt: Matrix,
}

impl QSlot {
    fn new(n: usize) -> Self {
        QSlot {
            t_bits: None,
            q: Matrix::zeros(n, n),
            qt: Matrix::zeros(n, n),
        }
    }

    /// Refreshes the cached generator if `t` differs bitwise from the
    /// memoized stage time.
    fn refresh<G: TimeVaryingGenerator>(&mut self, gen: &G, t: f64) {
        if self.t_bits == Some(t.to_bits()) {
            return;
        }
        gen.write_generator(t, &mut self.q);
        let n = self.q.rows();
        for i in 0..n {
            for j in 0..n {
                self.qt[(j, i)] = self.q[(i, j)];
            }
        }
        self.t_bits = Some(t.to_bits());
    }
}

/// Allocation-free system for `dπ/dt = π(t)·Q(t)`.
struct ForwardSystem<'a, G> {
    gen: &'a G,
    n: usize,
    slot: RefCell<QSlot>,
}

impl<G: TimeVaryingGenerator> mfcsl_ode::OdeSystem for ForwardSystem<'_, G> {
    fn dim(&self) -> usize {
        self.n
    }

    fn rhs(&self, t: f64, y: &[f64], dy: &mut [f64]) {
        let mut slot = self.slot.borrow_mut();
        slot.refresh(self.gen, t);
        let q = &slot.q;
        // dπ = π·Q with `Matrix::vec_mul`'s accumulation order, so the
        // trajectory is bitwise identical to the allocating path.
        dy.fill(0.0);
        for (i, &xi) in y.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (j, dy_j) in dy.iter_mut().enumerate() {
                *dy_j += xi * q[(i, j)];
            }
        }
    }
}

/// Allocation-free system for the forward Kolmogorov matrix equation
/// `dΠ/dT = Π·Q(t_start + T)` on the flattened `n²` state.
struct MatrixForwardSystem<'a, G> {
    gen: &'a G,
    n: usize,
    t_start: f64,
    slot: RefCell<QSlot>,
}

impl<G: TimeVaryingGenerator> mfcsl_ode::OdeSystem for MatrixForwardSystem<'_, G> {
    fn dim(&self) -> usize {
        self.n * self.n
    }

    fn rhs(&self, big_t: f64, y: &[f64], dy: &mut [f64]) {
        let n = self.n;
        let mut slot = self.slot.borrow_mut();
        slot.refresh(self.gen, self.t_start + big_t);
        // (ΠQ)_{ij} = Σ_k Π_{ik} Q_{kj}: column j of Q is row j of Qᵀ, so
        // both factors stream contiguously; the summation order (ascending
        // k) is unchanged, keeping results bitwise identical.
        let qt = slot.qt.as_slice();
        for i in 0..n {
            let y_row = &y[i * n..(i + 1) * n];
            let dy_row = &mut dy[i * n..(i + 1) * n];
            for (j, dy_ij) in dy_row.iter_mut().enumerate() {
                let q_col = &qt[j * n..(j + 1) * n];
                let mut acc = 0.0;
                for (y_ik, q_kj) in y_row.iter().zip(q_col) {
                    acc += y_ik * q_kj;
                }
                *dy_ij = acc;
            }
        }
    }
}

/// Allocation-free system for the combined window equation (Eq. 6):
/// `dΠ'(t, t+T)/dt = -Q(t)·Π' + Π'·Q(t+T)`, with separately memoized lead
/// and trail generator evaluations.
struct WindowSystem<'a, G> {
    gen: &'a G,
    n: usize,
    duration: f64,
    lead: RefCell<QSlot>,
    trail: RefCell<QSlot>,
}

impl<G: TimeVaryingGenerator> mfcsl_ode::OdeSystem for WindowSystem<'_, G> {
    fn dim(&self) -> usize {
        self.n * self.n
    }

    fn rhs(&self, t: f64, y: &[f64], dy: &mut [f64]) {
        let n = self.n;
        let mut lead = self.lead.borrow_mut();
        let mut trail = self.trail.borrow_mut();
        lead.refresh(self.gen, t);
        trail.refresh(self.gen, t + self.duration);
        let q_lead = lead.q.as_slice();
        let qt_trail = trail.qt.as_slice();
        for i in 0..n {
            let lead_row = &q_lead[i * n..(i + 1) * n];
            let y_row = &y[i * n..(i + 1) * n];
            let dy_row = &mut dy[i * n..(i + 1) * n];
            for (j, dy_ij) in dy_row.iter_mut().enumerate() {
                let trail_col = &qt_trail[j * n..(j + 1) * n];
                let mut acc = 0.0;
                for k in 0..n {
                    // -Q(t) Π + Π Q(t+T)
                    acc += -lead_row[k] * y[k * n + j] + y_row[k] * trail_col[k];
                }
                *dy_ij = acc;
            }
        }
    }
}

/// Solves `dπ/dt = π(t)·Q(t)` from `t0` to `t1` with initial distribution
/// `pi0`, returning the dense trajectory of the distribution.
///
/// # Errors
///
/// Returns [`CtmcError::InvalidDistribution`] for a bad `pi0`, and
/// propagates ODE failures.
pub fn forward_distribution<G: TimeVaryingGenerator>(
    gen: &G,
    pi0: &[f64],
    t0: f64,
    t1: f64,
    options: &OdeOptions,
) -> Result<Trajectory, CtmcError> {
    let n = gen.n_states();
    if pi0.len() != n {
        return Err(CtmcError::InvalidDistribution(format!(
            "distribution has length {}, expected {n}",
            pi0.len()
        )));
    }
    mfcsl_math::simplex::check_distribution(pi0, mfcsl_math::simplex::DEFAULT_SUM_TOL)
        .map_err(|e| CtmcError::InvalidDistribution(e.to_string()))?;
    let sys = ForwardSystem {
        gen,
        n,
        slot: RefCell::new(QSlot::new(n)),
    };
    let mut ws = SolverWorkspace::new();
    Ok(solve_recovering(&sys, t0, t1, pi0, options, &mut ws)?.0)
}

/// Solves the forward Kolmogorov equation (Eq. 5):
/// `dΠ'(t', t'+T)/dT = Π'(t', t'+T)·Q(t'+T)` with `Π'(t', t') = I`,
/// returning `Π'(t', t'+duration)`.
///
/// Row `s` column `s'` of the result is the probability of being in `s'` at
/// time `t' + duration` given state `s` at time `t'`.
///
/// # Errors
///
/// Returns [`CtmcError::InvalidArgument`] for a negative duration and
/// propagates ODE failures.
pub fn transition_matrix<G: TimeVaryingGenerator>(
    gen: &G,
    t_start: f64,
    duration: f64,
    options: &OdeOptions,
) -> Result<Matrix, CtmcError> {
    let traj = transition_matrix_trajectory(gen, t_start, duration, options)?;
    Ok(flat_to_matrix(gen.n_states(), &traj.final_state()))
}

/// Like [`transition_matrix`] but returns the whole dense trajectory of the
/// flattened `n²`-dimensional matrix ODE over `T ∈ [0, duration]` (evaluate
/// and reshape with [`flat_to_matrix`]).
///
/// # Errors
///
/// See [`transition_matrix`].
pub fn transition_matrix_trajectory<G: TimeVaryingGenerator>(
    gen: &G,
    t_start: f64,
    duration: f64,
    options: &OdeOptions,
) -> Result<Trajectory, CtmcError> {
    if !(duration >= 0.0) || !duration.is_finite() {
        return Err(CtmcError::InvalidArgument(format!(
            "duration must be finite and non-negative, got {duration}"
        )));
    }
    let n = gen.n_states();
    let sys = MatrixForwardSystem {
        gen,
        n,
        t_start,
        slot: RefCell::new(QSlot::new(n)),
    };
    let identity_flat = Matrix::identity(n).into_vec();
    let mut ws = SolverWorkspace::new();
    Ok(solve_recovering(&sys, 0.0, duration, &identity_flat, options, &mut ws)?.0)
}

/// Solves the combined forward/backward equation (Eq. 6 / Eq. 12):
///
/// `dΠ'(t, t+T)/dt = -Q_lead(t)·Π'(t, t+T) + Π'(t, t+T)·Q_trail(t+T)`
///
/// for `t ∈ [t_init, t_end]`, starting from the given `initial` matrix
/// `Π'(t_init, t_init+T)`. Both sides use the same generator in the
/// single-until case; the nested-until algorithm of Sec. IV-C feeds the
/// same modified generator too but restarts the integration at every
/// discontinuity point.
///
/// Returns the dense trajectory of the flattened matrix (reshape with
/// [`flat_to_matrix`]).
///
/// # Errors
///
/// Returns [`CtmcError::InvalidArgument`] for shape mismatches, a negative
/// window `duration`, or a reversed time range, and propagates ODE failures.
pub fn propagate_window<G: TimeVaryingGenerator>(
    gen: &G,
    initial: &Matrix,
    t_init: f64,
    t_end: f64,
    duration: f64,
    options: &OdeOptions,
) -> Result<Trajectory, CtmcError> {
    propagate_window_from(gen, initial, t_init, t_end, duration, options, None)
}

/// The steady-regime hand-off for [`propagate_window_from`]: from `t_star`
/// on, the generator is (numerically) constant in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantTail {
    /// Earliest time from which `Q(t)` no longer varies.
    pub t_star: f64,
    /// Truncation error of the uniformization used for the tail value.
    pub eps: f64,
}

/// [`propagate_window`] with an optional steady-regime fast path.
///
/// When `tail` reports that `Q(t)` is constant for `t ≥ t_star`, the window
/// matrix is constant there too: `Π'(t, t+T) = e^{Q·T}` for every
/// `t ≥ t_star`, because the window only sees the settled generator. The
/// integration of Eq. 6 is therefore cut at `t_star` and the remaining
/// `[t_star, t_end]` range is covered by a single uniformization
/// (Eq. 14/15) of the frozen generator — one shared Poisson window instead
/// of thousands of Runge-Kutta stages.
///
/// The fast path is only valid when the propagated quantity *is* the
/// sliding-window transition matrix of `gen` itself (as in the single-until
/// algorithm, where `initial = Π'(t_init, t_init+T)`). Products of matrices
/// propagated through this equation — the nested-until `Υ` of Eq. 12 — do
/// not satisfy `Π'(t, t+T) = e^{QT}` and must pass `tail = None`.
///
/// # Errors
///
/// See [`propagate_window`]; additionally propagates uniformization
/// failures from a bad `tail.eps`.
pub fn propagate_window_from<G: TimeVaryingGenerator>(
    gen: &G,
    initial: &Matrix,
    t_init: f64,
    t_end: f64,
    duration: f64,
    options: &OdeOptions,
    tail: Option<&ConstantTail>,
) -> Result<Trajectory, CtmcError> {
    let n = gen.n_states();
    if initial.rows() != n || initial.cols() != n {
        return Err(CtmcError::InvalidArgument(format!(
            "initial matrix is {}x{}, expected {n}x{n}",
            initial.rows(),
            initial.cols()
        )));
    }
    if !(duration >= 0.0) || !(t_end >= t_init) {
        return Err(CtmcError::InvalidArgument(format!(
            "invalid window propagation: t ∈ [{t_init}, {t_end}], T = {duration}"
        )));
    }
    let sys = WindowSystem {
        gen,
        n,
        duration,
        lead: RefCell::new(QSlot::new(n)),
        trail: RefCell::new(QSlot::new(n)),
    };
    let cut = match tail {
        Some(tail) if tail.t_star.max(t_init) < t_end => tail.t_star.max(t_init),
        _ => {
            let mut ws = SolverWorkspace::new();
            return Ok(solve_recovering(
                &sys,
                t_init,
                t_end,
                initial.as_slice(),
                options,
                &mut ws,
            )?
            .0);
        }
    };
    let tail = tail.expect("checked above");
    // Head: the genuinely time-varying stretch, integrated as usual.
    let mut ws = SolverWorkspace::new();
    let head = solve_recovering(&sys, t_init, cut, initial.as_slice(), options, &mut ws)?.0;
    // Tail: one uniformization of the frozen generator gives the constant
    // window value W = e^{Q(t_star)·T}. A sparsity-aware generator above
    // the density threshold skips the dense Q and Pᵀ materializations.
    let w = match gen.sparsity() {
        Some((from, to))
            if crate::propagator::choose_backend(n, from.len())
                == crate::propagator::Backend::Sparse =>
        {
            let mut rates = vec![0.0; from.len()];
            gen.write_rates(cut, &mut rates);
            let triplets: Vec<(usize, usize, f64)> = from
                .iter()
                .zip(to)
                .zip(&rates)
                .map(|((&f, &t), &r)| (f, t, r))
                .collect();
            let prop = crate::propagator::SparsePropagator::from_triplets(n, &triplets)?;
            crate::transient::transient_matrix_for(None, &prop, duration, tail.eps)?
        }
        _ => {
            let mut q = Matrix::zeros(n, n);
            gen.write_generator(cut, &mut q);
            let prop = crate::propagator::DensePropagator::from_generator(&q);
            crate::transient::transient_matrix_for(None, &prop, duration, tail.eps)?
        }
    };
    // Append the constant segment as a two-knot Hermite piece anchored at
    // the head's actual final knot (flat value, zero slope). The head's
    // value at the hand-off differs from W only by the settle threshold and
    // the two methods' truncation errors.
    let t_cut = head.t_end();
    if !(t_cut < t_end) {
        return Ok(head);
    }
    let flat = mfcsl_ode::SolveStats::default();
    let mut ys = Vec::with_capacity(2 * n * n);
    ys.extend_from_slice(w.as_slice());
    ys.extend_from_slice(w.as_slice());
    let const_tail =
        Trajectory::from_flat(n * n, vec![t_cut, t_end], ys, vec![0.0; 2 * n * n], flat)?;
    Ok(head.extended_with(&const_tail)?)
}

/// Reshapes a flattened row-major `n²` vector into a matrix.
///
/// # Panics
///
/// Panics if `flat.len() != n * n`.
#[must_use]
pub fn flat_to_matrix(n: usize, flat: &[f64]) -> Matrix {
    assert_eq!(flat.len(), n * n, "flat vector has wrong length");
    Matrix::from_vec(n, n, flat.to_vec()).expect("length checked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::transient_matrix;
    use crate::CtmcBuilder;

    fn chain3() -> Ctmc {
        CtmcBuilder::new()
            .state("a", ["a"])
            .state("b", ["b"])
            .state("c", ["c"])
            .transition("a", "b", 1.2)
            .unwrap()
            .transition("b", "a", 0.4)
            .unwrap()
            .transition("b", "c", 0.9)
            .unwrap()
            .transition("c", "b", 2.0)
            .unwrap()
            .build()
            .unwrap()
    }

    fn tight() -> OdeOptions {
        OdeOptions::default().with_tolerances(1e-11, 1e-13)
    }

    #[test]
    fn constant_generator_matches_uniformization() {
        let c = chain3();
        let gen = ConstGenerator::new(&c);
        let pi_ode = transition_matrix(&gen, 0.0, 1.5, &tight()).unwrap();
        let pi_unif = transient_matrix(&c, 1.5, 1e-13).unwrap();
        assert!(pi_ode.sub_matrix(&pi_unif).unwrap().norm_max() < 1e-8);
    }

    #[test]
    fn forward_distribution_matches_matrix_row() {
        let c = chain3();
        let gen = ConstGenerator::new(&c);
        let traj = forward_distribution(&gen, &[1.0, 0.0, 0.0], 0.0, 2.0, &tight()).unwrap();
        let pi = traj.final_state();
        let mat = transition_matrix(&gen, 0.0, 2.0, &tight()).unwrap();
        for j in 0..3 {
            assert!((pi[j] - mat[(0, j)]).abs() < 1e-8);
        }
    }

    #[test]
    fn genuinely_time_varying_generator() {
        // One-way chain with rate r(t) = t: survival in state 0 over [0, T]
        // is exp(-T²/2).
        let gen = FnGenerator::new(2, |t: f64, q: &mut Matrix| {
            q[(0, 0)] = -t;
            q[(0, 1)] = t;
            q[(1, 0)] = 0.0;
            q[(1, 1)] = 0.0;
        });
        let m = transition_matrix(&gen, 0.0, 2.0, &tight()).unwrap();
        let exact = (-2.0_f64).exp(); // e^{-T²/2} with T=2.
        assert!((m[(0, 0)] - exact).abs() < 1e-9, "{m}");
        assert!((m[(0, 1)] - (1.0 - exact)).abs() < 1e-9);
        // Starting time matters: from t' = 1 the exponent is ∫₁³ t dt = 4.
        let m = transition_matrix(&gen, 1.0, 2.0, &tight()).unwrap();
        assert!((m[(0, 0)] - (-4.0_f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn window_propagation_matches_direct_solves() {
        // Π(t, t+T) computed by sliding the window must match a fresh
        // forward solve from each t.
        let gen = FnGenerator::new(2, |t: f64, q: &mut Matrix| {
            let r = 0.5 + 0.3 * (t).sin();
            q[(0, 0)] = -r;
            q[(0, 1)] = r;
            q[(1, 0)] = 1.0;
            q[(1, 1)] = -1.0;
        });
        let duration = 0.8;
        let init = transition_matrix(&gen, 0.0, duration, &tight()).unwrap();
        let traj = propagate_window(&gen, &init, 0.0, 3.0, duration, &tight()).unwrap();
        for &t in &[0.5, 1.3, 2.7] {
            let via_window = flat_to_matrix(2, &traj.eval(t));
            let direct = transition_matrix(&gen, t, duration, &tight()).unwrap();
            let diff = via_window.sub_matrix(&direct).unwrap().norm_max();
            assert!(diff < 1e-7, "t = {t}, diff = {diff}");
        }
    }

    #[test]
    fn rows_remain_stochastic_along_window() {
        let c = chain3();
        let gen = ConstGenerator::new(&c);
        let init = transition_matrix(&gen, 0.0, 1.0, &tight()).unwrap();
        let traj = propagate_window(&gen, &init, 0.0, 5.0, 1.0, &tight()).unwrap();
        for &t in traj.knots() {
            let m = flat_to_matrix(3, &traj.eval(t));
            for i in 0..3 {
                let s: f64 = m.row(i).iter().sum();
                assert!((s - 1.0).abs() < 1e-7, "row sum {s} at t = {t}");
            }
        }
    }

    #[test]
    fn validates_arguments() {
        let c = chain3();
        let gen = ConstGenerator::new(&c);
        assert!(forward_distribution(&gen, &[1.0], 0.0, 1.0, &tight()).is_err());
        assert!(forward_distribution(&gen, &[0.6, 0.6, 0.0], 0.0, 1.0, &tight()).is_err());
        assert!(transition_matrix(&gen, 0.0, -1.0, &tight()).is_err());
        let bad_init = Matrix::identity(2);
        assert!(propagate_window(&gen, &bad_init, 0.0, 1.0, 1.0, &tight()).is_err());
        let good_init = Matrix::identity(3);
        assert!(propagate_window(&gen, &good_init, 1.0, 0.0, 1.0, &tight()).is_err());
        assert!(propagate_window(&gen, &good_init, 0.0, 1.0, -1.0, &tight()).is_err());
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn flat_to_matrix_checks_length() {
        let _ = flat_to_matrix(2, &[1.0, 2.0, 3.0]);
    }

    /// A generator that genuinely varies early and is *exactly* constant
    /// from `t = 2` on — the regime the steady-state fast path targets.
    fn settling_gen() -> FnGenerator<impl Fn(f64, &mut Matrix)> {
        FnGenerator::new(2, |t: f64, q: &mut Matrix| {
            let s = (2.0 - t).max(0.0);
            let r = 1.0 + s * s;
            q[(0, 0)] = -r;
            q[(0, 1)] = r;
            q[(1, 0)] = 0.7;
            q[(1, 1)] = -0.7;
        })
    }

    #[test]
    fn constant_tail_matches_full_integration() {
        let gen = settling_gen();
        let duration = 0.8;
        let init = transition_matrix(&gen, 0.0, duration, &tight()).unwrap();
        let full = propagate_window(&gen, &init, 0.0, 12.0, duration, &tight()).unwrap();
        let tail = ConstantTail {
            t_star: 2.0,
            eps: 1e-13,
        };
        let fast =
            propagate_window_from(&gen, &init, 0.0, 12.0, duration, &tight(), Some(&tail)).unwrap();
        for i in 0..=24 {
            let t = 12.0 * f64::from(i) / 24.0;
            // Reference: the window matrix integrated directly over
            // [t, t+T] — a short solve whose error stays near the
            // tolerance floor, unlike the 12-time-unit window propagation
            // whose accumulated drift is itself ~1e-9.
            let direct = transition_matrix(&gen, t, duration, &tight()).unwrap();
            let via_fast = flat_to_matrix(2, &fast.eval(t));
            let err_fast = via_fast.sub_matrix(&direct).unwrap().norm_max();
            assert!(err_fast < 1e-9, "t = {t}, fast vs direct = {err_fast}");
            // The long window propagation's own error modes grow like
            // e^{(λi-λj)(t-t*)} through the settled stretch (≈1e-7 by
            // t = 11 here) — the uniformized tail sidesteps exactly that —
            // so the full path is only compared before the growth
            // dominates.
            if t <= 6.0 {
                let a = full.eval(t);
                let b = fast.eval(t);
                for (x, y) in a.iter().zip(&b) {
                    assert!((x - y).abs() < 1e-7, "t = {t}: {x} vs {y}");
                }
            }
        }
        // The fast path must actually skip the settled stretch (10 time
        // units at h_max, ≳200 stage evaluations).
        assert!(
            fast.stats().rhs_evals + 200 <= full.stats().rhs_evals,
            "fast {} vs full {}",
            fast.stats().rhs_evals,
            full.stats().rhs_evals
        );
    }

    #[test]
    fn constant_tail_from_start_is_pure_uniformization() {
        // t_star at (or before) t_init: the whole range is one constant
        // segment, W = e^{QT} straight from uniformization.
        let c = chain3();
        let gen = ConstGenerator::new(&c);
        let duration = 1.1;
        let init = transition_matrix(&gen, 0.0, duration, &tight()).unwrap();
        let tail = ConstantTail {
            t_star: -1.0,
            eps: 1e-13,
        };
        let fast =
            propagate_window_from(&gen, &init, 0.0, 4.0, duration, &tight(), Some(&tail)).unwrap();
        let expect = transient_matrix(&c, duration, 1e-13).unwrap();
        for &t in &[0.0, 1.0, 2.5, 4.0] {
            let m = flat_to_matrix(3, &fast.eval(t));
            let diff = m.sub_matrix(&expect).unwrap().norm_max();
            assert!(diff < 1e-9, "t = {t}, diff = {diff}");
        }
    }

    #[test]
    fn constant_tail_outside_range_is_bitwise_noop() {
        // t_star beyond t_end: the ODE path runs unchanged, bitwise.
        let gen = settling_gen();
        let duration = 0.5;
        let init = transition_matrix(&gen, 0.0, duration, &tight()).unwrap();
        let plain = propagate_window(&gen, &init, 0.0, 1.5, duration, &tight()).unwrap();
        let tail = ConstantTail {
            t_star: 9.0,
            eps: 1e-13,
        };
        let gated =
            propagate_window_from(&gen, &init, 0.0, 1.5, duration, &tight(), Some(&tail)).unwrap();
        assert_eq!(plain.knots(), gated.knots());
        for &t in plain.knots() {
            let a = plain.eval(t);
            let b = gated.eval(t);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "t = {t}");
            }
        }
    }

    #[test]
    fn zero_duration_window() {
        let c = chain3();
        let gen = ConstGenerator::new(&c);
        let m = transition_matrix(&gen, 0.3, 0.0, &tight()).unwrap();
        assert!(m.sub_matrix(&Matrix::identity(3)).unwrap().norm_max() < 1e-12);
    }
}
