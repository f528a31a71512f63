//! Single interval until on the time-inhomogeneous local model
//! (Sec. IV-B of the paper).
//!
//! The until probability is the two-phase reachability product of Eq. 4,
//! with each phase a forward Kolmogorov transient (Eq. 5) on a modified
//! chain. To evaluate the formula at *later* times `t ∈ [0, θ]` without
//! re-solving from scratch, the probability matrices are propagated with
//! the combined forward/backward equation (Eq. 6), exactly as the paper
//! prescribes; Eq. 7 then assembles the per-state probabilities.

use std::cell::{Cell, RefCell};

use mfcsl_ctmc::inhomogeneous::{
    flat_to_matrix, propagate_window_from, transition_matrix, ConstantTail, TimeVaryingGenerator,
};
use mfcsl_ctmc::propagator::{choose_backend, Backend};
use mfcsl_math::Matrix;
use mfcsl_ode::{solve_recovering, OdeOptions, OdeSystem, SolverWorkspace, Trajectory};

use crate::model::LocalTvModel;
use crate::syntax::TimeInterval;
use crate::{CslError, Tolerances};

/// A time-varying generator with a set of states forced absorbing — the
/// `𝓜[Φ]` construction lifted to time-varying chains.
pub struct MaskedGenerator<'a, G> {
    inner: &'a G,
    absorbing: Vec<bool>,
}

impl<'a, G: TimeVaryingGenerator> MaskedGenerator<'a, G> {
    /// Wraps `inner`, making every state with `absorbing[s] == true`
    /// absorbing.
    ///
    /// # Errors
    ///
    /// Returns [`CslError::InvalidArgument`] on shape mismatch.
    pub fn new(inner: &'a G, absorbing: Vec<bool>) -> Result<Self, CslError> {
        if absorbing.len() != inner.n_states() {
            return Err(CslError::InvalidArgument(format!(
                "absorbing mask has length {}, generator has {} states",
                absorbing.len(),
                inner.n_states()
            )));
        }
        Ok(MaskedGenerator { inner, absorbing })
    }
}

impl<G: TimeVaryingGenerator> TimeVaryingGenerator for MaskedGenerator<'_, G> {
    fn n_states(&self) -> usize {
        self.inner.n_states()
    }

    fn write_generator(&self, t: f64, q: &mut Matrix) {
        self.inner.write_generator(t, q);
        let n = self.n_states();
        for (s, &absorb) in self.absorbing.iter().enumerate() {
            if absorb {
                for j in 0..n {
                    q[(s, j)] = 0.0;
                }
            }
        }
    }

    fn sparsity(&self) -> Option<(&[usize], &[usize])> {
        self.inner.sparsity()
    }

    fn write_rates(&self, t: f64, rates: &mut [f64]) {
        self.inner.write_rates(t, rates);
        if let Some((from, _)) = self.inner.sparsity() {
            // Masking zeroes entire source rows; in rate-pattern form that
            // is every pattern slot whose source state is absorbing.
            for (r, &f) in rates.iter_mut().zip(from) {
                if self.absorbing[f] {
                    *r = 0.0;
                }
            }
        }
    }
}

/// The backward-Kolmogorov payload system of the sparse until lane.
///
/// For a payload vector `v`, `g(t') = Π(t', anchor)·v` satisfies the
/// backward equation `dg/dt' = -Q(t')·g`. Substituting `s = anchor - t'`
/// gives the forward-in-`s` system `dh/ds = Q(anchor - s)·h` integrated
/// here, with `h(0) = v` and `h(anchor - t') = g(t')`. Row `i` of `Q·h` is
/// `Σ_j r_ij·(h_j - h_i)` over the off-diagonal pattern, so the right-hand
/// side streams through the `(from, to)` triplets — `O(K + nnz)` per
/// evaluation, no matrix of any kind.
struct BackwardPayloadSystem<'a, G> {
    gen: &'a G,
    n: usize,
    from: &'a [usize],
    to: &'a [usize],
    /// Rates are evaluated at `anchor - s`.
    anchor: f64,
    /// Rate buffer memoized by the exact bit pattern of the queried time
    /// (Dopri5 stage times repeat; see `QSlot` in the ctmc layer).
    rates: RefCell<Vec<f64>>,
    memo: Cell<Option<u64>>,
}

impl<G: TimeVaryingGenerator> OdeSystem for BackwardPayloadSystem<'_, G> {
    fn dim(&self) -> usize {
        self.n
    }

    fn rhs(&self, s: f64, y: &[f64], dy: &mut [f64]) {
        let t = self.anchor - s;
        let mut rates = self.rates.borrow_mut();
        if self.memo.get() != Some(t.to_bits()) {
            self.gen.write_rates(t, &mut rates);
            self.memo.set(Some(t.to_bits()));
        }
        dy.fill(0.0);
        for ((&f, &to), &r) in self.from.iter().zip(self.to).zip(rates.iter()) {
            dy[f] += r * (y[to] - y[f]);
        }
    }
}

/// Integrates `h(span) = Π(anchor - span, anchor)·v0` through the payload
/// system above.
fn backward_payload<G: TimeVaryingGenerator>(
    gen: &G,
    anchor: f64,
    span: f64,
    v0: &[f64],
    options: &OdeOptions,
) -> Result<Vec<f64>, CslError> {
    if span == 0.0 {
        return Ok(v0.to_vec());
    }
    let (from, to) = gen
        .sparsity()
        .ok_or_else(|| CslError::InvalidArgument("generator lost its sparsity pattern".into()))?;
    let sys = BackwardPayloadSystem {
        gen,
        n: v0.len(),
        from,
        to,
        anchor,
        rates: RefCell::new(vec![0.0; from.len()]),
        memo: Cell::new(None),
    };
    let mut ws = SolverWorkspace::new();
    let (traj, _) = solve_recovering(&sys, 0.0, span, v0, options, &mut ws)?;
    Ok(traj.final_state())
}

/// Large-`K` fast path for Eq. 4 at evaluation time 0: instead of the two
/// `K × K` transition-matrix ODEs of [`until_probabilities`], two
/// `K`-dimensional backward-Kolmogorov payload solves — phase B transports
/// the goal indicator `1_{Φ₂}` over `[t₁, t₂]` on `𝓜[¬Φ₁ ∨ Φ₂]`, phase A
/// transports the `Φ₁`-filtered result over `[0, t₁]` on `𝓜[¬Φ₁]`. Peak
/// memory is `O(K + nnz)` per right-hand side.
///
/// Returns `Ok(None)` when the generator exposes no sparsity pattern or
/// the chain sits below the density threshold — callers fall back to the
/// matrix path, which additionally supports evaluation at `t > 0`.
///
/// # Errors
///
/// Returns [`CslError::InvalidArgument`] on shape mismatches and
/// propagates ODE failures.
pub fn until_probabilities_sparse<G: TimeVaryingGenerator>(
    model: &LocalTvModel<G>,
    sat1: &[bool],
    sat2: &[bool],
    interval: TimeInterval,
    tol: &Tolerances,
) -> Result<Option<Vec<f64>>, CslError> {
    let n = model.n_states();
    let gen = model.generator();
    let Some((pattern_from, _)) = gen.sparsity() else {
        return Ok(None);
    };
    if choose_backend(n, pattern_from.len()) != Backend::Sparse {
        return Ok(None);
    }
    if sat1.len() != n || sat2.len() != n {
        return Err(CslError::InvalidArgument(format!(
            "satisfaction vectors have lengths {}/{}, model has {n} states",
            sat1.len(),
            sat2.len()
        )));
    }
    tol.validate()?;
    let t1 = interval.lo();
    let t2 = interval.hi();

    // Phase B on 𝓜[¬Φ₁ ∨ Φ₂]: goal mass from each intermediate state.
    let absorb_b: Vec<bool> = (0..n).map(|s| !sat1[s] || sat2[s]).collect();
    let masked_b = MaskedGenerator::new(gen, absorb_b)?;
    let h0: Vec<f64> = sat2.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
    let goal_from = backward_payload(&masked_b, t2, t2 - t1, &h0, &tol.ode)?;
    if interval.starts_at_zero() {
        return Ok(Some(goal_from));
    }

    // Phase A on 𝓜[¬Φ₁], transporting the Φ₁-filtered goal mass to time 0.
    let absorb_a: Vec<bool> = sat1.iter().map(|&b| !b).collect();
    let masked_a = MaskedGenerator::new(gen, absorb_a)?;
    let w: Vec<f64> = goal_from
        .iter()
        .zip(sat1)
        .map(|(&v, &s1)| if s1 { v } else { 0.0 })
        .collect();
    Ok(Some(backward_payload(&masked_a, t1, t1, &w, &tol.ode)?))
}

/// Computes `Prob(s, Φ₁ U^[t₁,t₂] Φ₂, m̄)` for every start state `s` at
/// evaluation time 0 (Eq. 4), given the (time-independent) satisfaction
/// vectors of `Φ₁` and `Φ₂`.
///
/// # Errors
///
/// Returns [`CslError::InvalidArgument`] on shape mismatches and propagates
/// ODE failures.
pub fn until_probabilities<G: TimeVaryingGenerator>(
    model: &LocalTvModel<G>,
    sat1: &[bool],
    sat2: &[bool],
    interval: TimeInterval,
    tol: &Tolerances,
) -> Result<Vec<f64>, CslError> {
    let ev = until_evaluator(model, sat1, sat2, interval, 0.0, tol)?;
    Ok(ev.probs_at(0.0))
}

/// The time-dependent until probabilities
/// `t ↦ Prob(s, Φ₁ U^[t₁,t₂] Φ₂, m̄, t)` over `t ∈ [0, θ]` (Eq. 7), backed
/// by the window-propagated probability matrices of Eq. 6.
#[derive(Debug)]
pub struct UntilEvaluator {
    n: usize,
    t1: f64,
    sat1: Vec<bool>,
    sat2: Vec<bool>,
    /// `Π^{𝓜[¬Φ₁]}(t, t+t₁)` flattened, over `t ∈ [0, θ]`; `None` if `t₁ = 0`.
    phase_a: Option<Trajectory>,
    /// `Π^{𝓜[¬Φ₁∨Φ₂]}(u, u+(t₂-t₁))` flattened, over `u ∈ [t₁, θ+t₁]`.
    phase_b: Trajectory,
}

impl UntilEvaluator {
    /// Per-state probabilities at evaluation time `t` (clamped to `[0, θ]`).
    #[must_use]
    pub fn probs_at(&self, t: f64) -> Vec<f64> {
        let b = flat_to_matrix(self.n, &self.phase_b.eval(t + self.t1));
        // Goal mass from each intermediate state s₁.
        let goal_from: Vec<f64> = (0..self.n)
            .map(|s1| {
                (0..self.n)
                    .filter(|&s2| self.sat2[s2])
                    .map(|s2| b[(s1, s2)])
                    .sum()
            })
            .collect();
        match &self.phase_a {
            None => goal_from,
            Some(ta) => {
                let a = flat_to_matrix(self.n, &ta.eval(t));
                (0..self.n)
                    .map(|s| {
                        (0..self.n)
                            .filter(|&s1| self.sat1[s1])
                            .map(|s1| a[(s, s1)] * goal_from[s1])
                            .sum()
                    })
                    .collect()
            }
        }
    }

    /// Probability for a single start state at evaluation time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn prob_state_at(&self, s: usize, t: f64) -> f64 {
        assert!(s < self.n, "state index {s} out of range");
        self.probs_at(t)[s]
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.n
    }

    /// Decomposes the evaluator into its constructor data, for snapshot
    /// serialization: `(n, t₁, sat1, sat2, phase_a, phase_b)`.
    #[must_use]
    pub(crate) fn export_parts(
        &self,
    ) -> (
        usize,
        f64,
        Vec<bool>,
        Vec<bool>,
        Option<Trajectory>,
        Trajectory,
    ) {
        (
            self.n,
            self.t1,
            self.sat1.clone(),
            self.sat2.clone(),
            self.phase_a.clone(),
            self.phase_b.clone(),
        )
    }

    /// Rebuilds an evaluator from exported parts, validating the structural
    /// coherence a corrupt snapshot could violate.
    pub(crate) fn from_parts(
        n: usize,
        t1: f64,
        sat1: Vec<bool>,
        sat2: Vec<bool>,
        phase_a: Option<Trajectory>,
        phase_b: Trajectory,
    ) -> Result<UntilEvaluator, CslError> {
        if n == 0 || sat1.len() != n || sat2.len() != n {
            return Err(CslError::InvalidArgument(format!(
                "until evaluator parts disagree: n = {n}, satisfaction \
                 vectors have lengths {}/{}",
                sat1.len(),
                sat2.len()
            )));
        }
        if !(t1 >= 0.0) || !t1.is_finite() {
            return Err(CslError::InvalidArgument(format!(
                "until evaluator lower bound must be finite and non-negative, got {t1}"
            )));
        }
        let flat = n * n;
        if phase_b.dim() != flat || phase_a.as_ref().is_some_and(|a| a.dim() != flat) {
            return Err(CslError::InvalidArgument(format!(
                "until phase trajectories must have dimension {flat}"
            )));
        }
        Ok(UntilEvaluator {
            n,
            t1,
            sat1,
            sat2,
            phase_a,
            phase_b,
        })
    }
}

/// Builds the time-dependent until evaluator over the window `[0, θ]`.
///
/// # Errors
///
/// Returns [`CslError::InvalidArgument`] on shape mismatches or negative
/// `θ`, and propagates ODE failures.
pub fn until_evaluator<G: TimeVaryingGenerator>(
    model: &LocalTvModel<G>,
    sat1: &[bool],
    sat2: &[bool],
    interval: TimeInterval,
    theta: f64,
    tol: &Tolerances,
) -> Result<UntilEvaluator, CslError> {
    let n = model.n_states();
    if sat1.len() != n || sat2.len() != n {
        return Err(CslError::InvalidArgument(format!(
            "satisfaction vectors have lengths {}/{}, model has {n} states",
            sat1.len(),
            sat2.len()
        )));
    }
    if !(theta >= 0.0) || !theta.is_finite() {
        return Err(CslError::InvalidArgument(format!(
            "evaluation horizon must be finite and non-negative, got {theta}"
        )));
    }
    tol.validate()?;
    let gen = model.generator();
    let t1 = interval.lo();
    let duration_b = interval.hi() - interval.lo();
    // Steady-regime hand-off: once the mean-field trajectory has settled,
    // the (masked) generator is constant and the sliding window matrix no
    // longer changes — the propagation tail collapses to one uniformization.
    // The masks here are time-independent, so the window invariant
    // `Π'(t, t+T) = e^{QT}` required by the fast path holds for both phases.
    let tail = model.steady_from().map(|t_star| ConstantTail {
        t_star,
        eps: mfcsl_ctmc::transient::DEFAULT_EPSILON,
    });

    // Phase B on 𝓜[¬Φ₁ ∨ Φ₂].
    let absorb_b: Vec<bool> = (0..n).map(|s| !sat1[s] || sat2[s]).collect();
    let masked_b = MaskedGenerator::new(gen, absorb_b)?;
    let init_b = transition_matrix(&masked_b, t1, duration_b, &tol.ode)?;
    let phase_b = propagate_window_from(
        &masked_b,
        &init_b,
        t1,
        theta + t1,
        duration_b,
        &tol.ode,
        tail.as_ref(),
    )?;

    // Phase A on 𝓜[¬Φ₁], only needed for t₁ > 0.
    let phase_a = if interval.starts_at_zero() {
        None
    } else {
        let absorb_a: Vec<bool> = sat1.iter().map(|&b| !b).collect();
        let masked_a = MaskedGenerator::new(gen, absorb_a)?;
        let init_a = transition_matrix(&masked_a, 0.0, t1, &tol.ode)?;
        Some(propagate_window_from(
            &masked_a,
            &init_a,
            0.0,
            theta,
            t1,
            &tol.ode,
            tail.as_ref(),
        )?)
    };

    Ok(UntilEvaluator {
        n,
        t1,
        sat1: sat1.to_vec(),
        sat2: sat2.to_vec(),
        phase_a,
        phase_b,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homogeneous;
    use mfcsl_ctmc::inhomogeneous::{ConstGenerator, FnGenerator};
    use mfcsl_ctmc::{CtmcBuilder, Labeling};

    fn tol() -> Tolerances {
        let mut t = Tolerances::default();
        t.ode = t.ode.with_tolerances(1e-11, 1e-13);
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

    #[test]
    fn constant_rates_match_homogeneous_checker() {
        let (model, ctmc) = const_model();
        let sat1 = [true, false, false];
        let sat2 = [false, true, true];
        for interval in [
            TimeInterval::bounded_by(1.0).unwrap(),
            TimeInterval::new(0.5, 2.0).unwrap(),
            TimeInterval::new(1.0, 1.0).unwrap(),
        ] {
            let inhom = until_probabilities(&model, &sat1, &sat2, interval, &tol()).unwrap();
            let hom =
                homogeneous::until_probabilities(&ctmc, &sat1, &sat2, interval, &tol()).unwrap();
            for (a, b) in inhom.iter().zip(&hom) {
                assert!((a - b).abs() < 1e-7, "{interval}: {inhom:?} vs {hom:?}");
            }
        }
    }

    #[test]
    fn constant_rates_time_invariance() {
        // For a homogeneous chain the until probability must not depend on
        // the evaluation time t.
        let (model, _) = const_model();
        let sat1 = [true, false, false];
        let sat2 = [false, true, true];
        let ev = until_evaluator(
            &model,
            &sat1,
            &sat2,
            TimeInterval::new(0.3, 1.7).unwrap(),
            5.0,
            &tol(),
        )
        .unwrap();
        let p0 = ev.probs_at(0.0);
        for &t in &[1.0, 2.5, 5.0] {
            let pt = ev.probs_at(t);
            for (a, b) in p0.iter().zip(&pt) {
                assert!((a - b).abs() < 1e-7, "t = {t}");
            }
        }
    }

    #[test]
    fn analytic_time_varying_until() {
        // One-way chain healthy -> infected with rate r(t) = t.
        // Prob(s0, tt U[0,T] infected, t) = 1 - exp(-((t+T)² - t²)/2).
        let gen = FnGenerator::new(2, |t: f64, q: &mut Matrix| {
            q[(0, 0)] = -t;
            q[(0, 1)] = t;
            q[(1, 0)] = 0.0;
            q[(1, 1)] = 0.0;
        });
        let mut labels = Labeling::new(2);
        labels.add(0, "healthy");
        labels.add(1, "infected");
        let model =
            LocalTvModel::new(gen, labels, vec!["healthy".into(), "infected".into()]).unwrap();
        let big_t = 1.0;
        let ev = until_evaluator(
            &model,
            &[true, true],
            &[false, true],
            TimeInterval::bounded_by(big_t).unwrap(),
            3.0,
            &tol(),
        )
        .unwrap();
        for &t in &[0.0, 0.7, 1.5, 3.0] {
            let exact = 1.0 - (-(((t + big_t) * (t + big_t)) - t * t) / 2.0_f64).exp();
            let got = ev.prob_state_at(0, t);
            assert!((got - exact).abs() < 1e-7, "t = {t}: {got} vs {exact}");
            assert!((ev.prob_state_at(1, t) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn two_phase_time_varying_until() {
        // Same chain, interval [t1, t2] with t1 > 0: the path must still be
        // healthy at t + t1 and jump within [t + t1, t + t2].
        // Prob = exp(-((t+t1)²-t²)/2) · (1 - exp(-((t+t2)²-(t+t1)²)/2)).
        let gen = FnGenerator::new(2, |t: f64, q: &mut Matrix| {
            q[(0, 0)] = -t;
            q[(0, 1)] = t;
            q[(1, 0)] = 0.0;
            q[(1, 1)] = 0.0;
        });
        let mut labels = Labeling::new(2);
        labels.add(0, "healthy");
        labels.add(1, "infected");
        let model =
            LocalTvModel::new(gen, labels, vec!["healthy".into(), "infected".into()]).unwrap();
        let (t1, t2) = (0.5, 1.5);
        let ev = until_evaluator(
            &model,
            &[true, false],
            &[false, true],
            TimeInterval::new(t1, t2).unwrap(),
            2.0,
            &tol(),
        )
        .unwrap();
        for &t in &[0.0, 0.8, 2.0] {
            let survive = (-(((t + t1) * (t + t1)) - t * t) / 2.0_f64).exp();
            let jump = 1.0 - (-(((t + t2) * (t + t2)) - (t + t1) * (t + t1)) / 2.0_f64).exp();
            let exact = survive * jump;
            let got = ev.prob_state_at(0, t);
            assert!((got - exact).abs() < 1e-7, "t = {t}: {got} vs {exact}");
        }
    }

    #[test]
    fn steady_from_fast_path_matches_full_integration() {
        // A model whose generator is exactly constant from t = 2 on. With
        // `with_steady_from(2.0)` the evaluator swaps the settled stretch of
        // both window propagations for one uniformization each; the until
        // probabilities must agree with the fully integrated evaluator to
        // the fast path's equivalence budget.
        let gen = || {
            FnGenerator::new(2, |t: f64, q: &mut Matrix| {
                let s = (2.0 - t).max(0.0);
                let r = 0.6 + s * s;
                q[(0, 0)] = -r;
                q[(0, 1)] = r;
                q[(1, 0)] = 0.5;
                q[(1, 1)] = -0.5;
            })
        };
        let labels = || {
            let mut l = Labeling::new(2);
            l.add(0, "healthy");
            l.add(1, "infected");
            l
        };
        let names = || vec!["healthy".to_string(), "infected".to_string()];
        let slow = LocalTvModel::new(gen(), labels(), names()).unwrap();
        let fast = LocalTvModel::new(gen(), labels(), names())
            .unwrap()
            .with_steady_from(2.0);
        assert_eq!(fast.steady_from(), Some(2.0));
        let sat1 = [true, false];
        let sat2 = [false, true];
        let interval = TimeInterval::new(0.4, 1.3).unwrap();
        let theta = 10.0;
        let ev_slow = until_evaluator(&slow, &sat1, &sat2, interval, theta, &tol()).unwrap();
        let ev_fast = until_evaluator(&fast, &sat1, &sat2, interval, theta, &tol()).unwrap();
        for i in 0..=20 {
            let t = theta * f64::from(i) / 20.0;
            let a = ev_slow.probs_at(t);
            let b = ev_fast.probs_at(t);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-9, "t = {t}: {x} vs {y}");
            }
        }
    }

    /// A sparsity-aware time-varying birth–death generator over `n`
    /// states, used to exercise the vector-path until lane.
    struct SparseTvGen {
        n: usize,
        from: Vec<usize>,
        to: Vec<usize>,
    }

    impl SparseTvGen {
        fn new(n: usize) -> Self {
            let mut from = Vec::new();
            let mut to = Vec::new();
            for i in 0..n - 1 {
                from.push(i);
                to.push(i + 1);
                from.push(i + 1);
                to.push(i);
            }
            SparseTvGen { n, from, to }
        }

        fn rate(&self, k: usize, t: f64) -> f64 {
            // Up transitions decay towards 1.0, down transitions constant.
            if self.to[k] > self.from[k] {
                1.0 + 0.8 / (1.0 + t)
            } else {
                1.6
            }
        }
    }

    impl TimeVaryingGenerator for SparseTvGen {
        fn n_states(&self) -> usize {
            self.n
        }

        fn write_generator(&self, t: f64, q: &mut Matrix) {
            q.as_mut_slice().fill(0.0);
            for k in 0..self.from.len() {
                let r = self.rate(k, t);
                q[(self.from[k], self.to[k])] += r;
                q[(self.from[k], self.from[k])] -= r;
            }
        }

        fn sparsity(&self) -> Option<(&[usize], &[usize])> {
            Some((&self.from, &self.to))
        }

        fn write_rates(&self, t: f64, rates: &mut [f64]) {
            for (k, slot) in rates.iter_mut().enumerate() {
                *slot = self.rate(k, t);
            }
        }
    }

    fn sparse_model(n: usize) -> LocalTvModel<SparseTvGen> {
        let mut labels = Labeling::new(n);
        for s in 0..n {
            if s < n / 4 {
                labels.add(s, "low");
            }
            labels.add(s, "any");
        }
        let names = (0..n).map(|s| format!("s{s}")).collect();
        LocalTvModel::new(SparseTvGen::new(n), labels, names).unwrap()
    }

    #[test]
    fn vector_path_matches_matrix_path() {
        // 100 states is above the density threshold, so the sparse lane
        // engages; its two K-dim payload solves must agree with the K²
        // matrix ODEs of the reference path.
        let n = 100;
        let model = sparse_model(n);
        let sat1: Vec<bool> = (0..n).map(|s| s < 3 * n / 4).collect();
        let sat2: Vec<bool> = (0..n).map(|s| s >= n / 2 && s < 3 * n / 4).collect();
        let mut tols = Tolerances::default();
        tols.ode = tols.ode.with_tolerances(1e-9, 1e-11);
        for interval in [
            TimeInterval::bounded_by(0.8).unwrap(),
            TimeInterval::new(0.3, 1.1).unwrap(),
        ] {
            let fast = until_probabilities_sparse(&model, &sat1, &sat2, interval, &tols)
                .unwrap()
                .expect("above threshold: sparse lane must engage");
            let slow = until_probabilities(&model, &sat1, &sat2, interval, &tols).unwrap();
            for (s, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!((a - b).abs() < 1e-6, "{interval}, state {s}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn vector_path_declines_below_threshold_and_without_pattern() {
        // 10 states: pattern available but dense is cheaper.
        let model = sparse_model(10);
        let sat1 = vec![true; 10];
        let sat2: Vec<bool> = (0..10).map(|s| s >= 5).collect();
        let r = until_probabilities_sparse(
            &model,
            &sat1,
            &sat2,
            TimeInterval::bounded_by(1.0).unwrap(),
            &tol(),
        )
        .unwrap();
        assert!(r.is_none());
        // No pattern at all (ConstGenerator): decline regardless of size.
        let (model, _) = const_model();
        let r = until_probabilities_sparse(
            &model,
            &[true, true, true],
            &[false, true, true],
            TimeInterval::bounded_by(1.0).unwrap(),
            &tol(),
        )
        .unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn masked_write_rates_zeroes_absorbing_sources() {
        let gen = SparseTvGen::new(8);
        let masked = MaskedGenerator::new(
            &gen,
            vec![false, true, false, false, false, false, false, false],
        )
        .unwrap();
        let (from, _) = masked.sparsity().unwrap();
        let mut rates = vec![0.0; from.len()];
        masked.write_rates(0.7, &mut rates);
        for (k, &f) in from.iter().enumerate() {
            if f == 1 {
                assert_eq!(rates[k], 0.0);
            } else {
                assert!(rates[k] > 0.0);
            }
        }
        // The masked dense generator agrees with the masked rate pattern.
        let q = masked.generator_at(0.7);
        for (k, (&f, &t)) in from.iter().zip(masked.sparsity().unwrap().1).enumerate() {
            assert_eq!(q[(f, t)], rates[k]);
        }
    }

    #[test]
    fn masked_generator_zeroes_rows() {
        let (model, _) = const_model();
        let masked = MaskedGenerator::new(model.generator(), vec![false, true, false]).unwrap();
        let q = masked.generator_at(0.0);
        for j in 0..3 {
            assert_eq!(q[(1, j)], 0.0);
        }
        assert!(q[(0, 1)] > 0.0);
    }

    #[test]
    fn validation_errors() {
        let (model, _) = const_model();
        assert!(MaskedGenerator::new(model.generator(), vec![true]).is_err());
        assert!(until_probabilities(
            &model,
            &[true],
            &[true, false, false],
            TimeInterval::bounded_by(1.0).unwrap(),
            &tol()
        )
        .is_err());
        assert!(until_evaluator(
            &model,
            &[true, false, false],
            &[false, true, true],
            TimeInterval::bounded_by(1.0).unwrap(),
            -1.0,
            &tol()
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prob_state_at_checks_index() {
        let (model, _) = const_model();
        let ev = until_evaluator(
            &model,
            &[true, false, false],
            &[false, true, true],
            TimeInterval::bounded_by(1.0).unwrap(),
            0.0,
            &tol(),
        )
        .unwrap();
        let _ = ev.prob_state_at(7, 0.0);
    }
}
