//! Transient analysis of time-homogeneous CTMCs.
//!
//! Two independent methods are provided:
//!
//! * **uniformization** — the numerically robust production path. The chain
//!   is embedded into a Poisson-subordinated DTMC with uniformization rate
//!   `Λ ≥ max exit rate`, and `π(t) = Σ_k Poisson(Λt; k) · π P^k`. The
//!   Poisson layer weights are computed with a self-contained
//!   mode-centered scheme (a simplified Fox–Glynn) that is stable for large
//!   `Λt`;
//! * **matrix exponential** — `Π(t) = e^{Qt}` via `mfcsl-math`, used as an
//!   independent cross-check and as an ablation point in the benches.

use mfcsl_math::expm::expm_scaled;
use mfcsl_math::Matrix;

use crate::{Ctmc, CtmcError};

/// Default truncation error for the Poisson layer.
pub const DEFAULT_EPSILON: f64 = 1e-12;

/// Poisson probability weights `P(N_{λ} = k)` for `k` in a truncated window
/// `[left, left + weights.len())` whose total mass is at least `1 - eps`.
///
/// Computed mode-centered in linear space with one global normalization, so
/// it is stable for large `λ` where naive recursion from `k = 0`
/// underflows.
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonWindow {
    /// First index of the window.
    pub left: usize,
    /// Weights for `k = left, left+1, …`.
    pub weights: Vec<f64>,
}

impl PoissonWindow {
    /// Computes the truncated Poisson distribution with parameter `lambda`.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::InvalidArgument`] for negative or non-finite
    /// `lambda` or `eps` outside `(0, 1)`.
    pub fn new(lambda: f64, eps: f64) -> Result<Self, CtmcError> {
        if !(lambda >= 0.0) || !lambda.is_finite() {
            return Err(CtmcError::InvalidArgument(format!(
                "poisson parameter must be finite and non-negative, got {lambda}"
            )));
        }
        if !(eps > 0.0 && eps < 1.0) {
            return Err(CtmcError::InvalidArgument(format!(
                "truncation epsilon must be in (0, 1), got {eps}"
            )));
        }
        if lambda == 0.0 {
            return Ok(PoissonWindow {
                left: 0,
                weights: vec![1.0],
            });
        }
        let mode = lambda.floor() as usize;
        // Unnormalized weights relative to the mode (value 1 at the mode).
        // Window radius: generous Chernoff-style bound.
        let radius = (6.0 * (lambda.sqrt() + 1.0) * (1.0 / eps).ln().sqrt()) as usize + 5;
        let left = mode.saturating_sub(radius);
        let right = mode + radius;
        let mut weights = vec![0.0; right - left + 1];
        let mode_idx = mode - left;
        weights[mode_idx] = 1.0;
        // Recur right: w(k+1) = w(k) * lambda / (k+1).
        for k in mode..right {
            weights[k - left + 1] = weights[k - left] * lambda / (k + 1) as f64;
        }
        // Recur left: w(k-1) = w(k) * k / lambda. The pmf decreases
        // monotonically below the mode, so stop as soon as a term falls
        // under the per-term error budget: the unnormalized total is at
        // least 1 (the mode term), so the skipped terms contribute less
        // than eps/4 of normalized mass in aggregate — the same budget
        // the tail trim below works with. For large Λt this skips the
        // bulk of the left radius instead of recurring down to it.
        let floor = eps / (4.0 * weights.len() as f64);
        let mut first = mode_idx;
        for k in (left + 1..=mode).rev() {
            let w = weights[k - left] * k as f64 / lambda;
            if w < floor {
                break;
            }
            weights[k - left - 1] = w;
            first = k - left - 1;
        }
        let total: f64 = weights[first..].iter().sum();
        for w in &mut weights[first..] {
            *w /= total;
        }
        // Trim negligible tails so callers do fewer matrix products.
        let tail = eps / 4.0;
        let mut lo = first;
        let mut acc = 0.0;
        while lo < weights.len() && acc + weights[lo] < tail {
            acc += weights[lo];
            lo += 1;
        }
        let mut hi = weights.len();
        acc = 0.0;
        while hi > lo + 1 && acc + weights[hi - 1] < tail {
            acc += weights[hi - 1];
            hi -= 1;
        }
        Ok(PoissonWindow {
            left: left + lo,
            weights: weights[lo..hi].to_vec(),
        })
    }

    /// Total mass of the window (close to, and at most, 1).
    #[must_use]
    pub fn total_mass(&self) -> f64 {
        self.weights.iter().sum()
    }
}

/// Computes the transient distribution `π(t) = π(0)·e^{Qt}` by
/// uniformization.
///
/// # Errors
///
/// Returns [`CtmcError::InvalidDistribution`] for a bad initial
/// distribution, [`CtmcError::InvalidArgument`] for negative `t` or bad
/// `eps`.
///
/// # Example
///
/// ```
/// use mfcsl_ctmc::{transient::transient_distribution, CtmcBuilder};
///
/// # fn main() -> Result<(), mfcsl_ctmc::CtmcError> {
/// let c = CtmcBuilder::new()
///     .state("a", ["a"]).state("b", ["b"])
///     .transition("a", "b", 1.0)?
///     .build()?;
/// let pi = transient_distribution(&c, &[1.0, 0.0], 1.0, 1e-12)?;
/// assert!((pi[0] - (-1.0_f64).exp()).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn transient_distribution(
    ctmc: &Ctmc,
    pi0: &[f64],
    t: f64,
    eps: f64,
) -> Result<Vec<f64>, CtmcError> {
    ctmc.check_distribution(pi0)?;
    let prop = crate::propagator::DensePropagator::new(ctmc);
    crate::propagator::propagate_distribution(&prop, pi0, t, eps)
}

/// [`transient_distribution`] with the uniformization steps shared by the
/// lanes of `pool` — bitwise identical to the serial path at any thread
/// count (see [`crate::propagator::propagate_distribution_on`]).
///
/// # Errors
///
/// As [`transient_distribution`].
pub fn transient_distribution_on(
    pool: Option<&mfcsl_pool::ThreadPool>,
    ctmc: &Ctmc,
    pi0: &[f64],
    t: f64,
    eps: f64,
) -> Result<Vec<f64>, CtmcError> {
    ctmc.check_distribution(pi0)?;
    let prop = crate::propagator::DensePropagator::new(ctmc);
    crate::propagator::propagate_distribution_on(pool, &prop, pi0, t, eps)
}

/// Computes the full transient probability matrix `Π(t) = e^{Qt}` by
/// uniformization (row `s` is the distribution at time `t` given start `s`).
///
/// # Errors
///
/// See [`transient_distribution`].
pub fn transient_matrix(ctmc: &Ctmc, t: f64, eps: f64) -> Result<Matrix, CtmcError> {
    transient_matrix_on(None, ctmc, t, eps)
}

/// [`transient_matrix`] with the row integrations fanned out on `pool`.
///
/// Each row of `Π(t)` is the independent Kolmogorov propagation of one
/// unit vector; rows are dispatched as pool tasks, computed by the same
/// per-row kernel the serial path runs, and written to disjoint output
/// rows in fixed index order — so the matrix is bitwise identical to the
/// serial one at any thread count.
///
/// # Errors
///
/// See [`transient_distribution`].
pub fn transient_matrix_on(
    pool: Option<&mfcsl_pool::ThreadPool>,
    ctmc: &Ctmc,
    t: f64,
    eps: f64,
) -> Result<Matrix, CtmcError> {
    if !(t >= 0.0) || !t.is_finite() {
        return Err(CtmcError::InvalidArgument(format!(
            "time must be finite and non-negative, got {t}"
        )));
    }
    if ctmc.max_exit_rate() == 0.0 || t == 0.0 {
        return Ok(Matrix::identity(ctmc.n_states()));
    }
    let prop = crate::propagator::DensePropagator::new(ctmc);
    transient_matrix_for(pool, &prop, t, eps)
}

/// The transient matrix of any uniformization backend: row `s` of the
/// result is the distribution at time `t` of the unit mass started in
/// state `s`, each row propagated independently (and in parallel when a
/// pool is given). This is what lets the *sparse* backend produce
/// transient matrices too — the dense path is [`transient_matrix_on`].
///
/// # Errors
///
/// See [`transient_distribution`].
pub fn transient_matrix_for<P: crate::propagator::Propagator + Sync>(
    pool: Option<&mfcsl_pool::ThreadPool>,
    prop: &P,
    t: f64,
    eps: f64,
) -> Result<Matrix, CtmcError> {
    if !(t >= 0.0) || !t.is_finite() {
        return Err(CtmcError::InvalidArgument(format!(
            "time must be finite and non-negative, got {t}"
        )));
    }
    let n = prop.n_states();
    if prop.unif_rate() == 0.0 || t == 0.0 {
        return Ok(Matrix::identity(n));
    }
    // One Poisson window shared by every row (same Λt), computed up front.
    let window = PoissonWindow::new(prop.unif_rate() * t, eps)?;
    let row_of = |r: usize| -> Vec<f64> {
        let mut v = vec![0.0; n];
        v[r] = 1.0;
        crate::propagator::propagate_window(prop, &v, &window)
    };
    let rows: Vec<Vec<f64>> = match pool {
        Some(pool) if pool.threads() > 1 => pool.map_indexed(n, row_of),
        _ => (0..n).map(row_of).collect(),
    };
    let mut out = Matrix::zeros(n, n);
    for (i, row) in rows.iter().enumerate() {
        out.row_mut(i).copy_from_slice(row);
    }
    Ok(out)
}

/// Computes `Π(t) = e^{Qt}` with the matrix exponential — the independent
/// cross-check for [`transient_matrix`].
///
/// # Errors
///
/// Returns [`CtmcError::InvalidArgument`] for negative `t` and propagates
/// numerical failures.
pub fn transient_matrix_expm(ctmc: &Ctmc, t: f64) -> Result<Matrix, CtmcError> {
    if !(t >= 0.0) || !t.is_finite() {
        return Err(CtmcError::InvalidArgument(format!(
            "time must be finite and non-negative, got {t}"
        )));
    }
    Ok(expm_scaled(ctmc.generator(), t)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;
    use proptest::prelude::*;

    fn two_state() -> Ctmc {
        CtmcBuilder::new()
            .state("a", ["a"])
            .state("b", ["b"])
            .transition("a", "b", 2.0)
            .unwrap()
            .transition("b", "a", 1.0)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn poisson_window_small_lambda() {
        let w = PoissonWindow::new(1.0, 1e-12).unwrap();
        assert_eq!(w.left, 0);
        // P(N=0) = e^{-1}.
        assert!((w.weights[0] - (-1.0_f64).exp()).abs() < 1e-12);
        assert!((w.total_mass() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn poisson_window_large_lambda_is_stable() {
        let w = PoissonWindow::new(5000.0, 1e-12).unwrap();
        assert!(w.left > 4000, "window should be centered near the mode");
        assert!((w.total_mass() - 1.0).abs() < 1e-9);
        assert!(w.weights.iter().all(|&x| x.is_finite() && x >= 0.0));
        // Mean of the window distribution should be close to lambda.
        let mean: f64 = w
            .weights
            .iter()
            .enumerate()
            .map(|(i, &p)| (w.left + i) as f64 * p)
            .sum();
        assert!((mean - 5000.0).abs() < 1.0);
    }

    #[test]
    fn poisson_window_left_truncation_keeps_invariants() {
        // The left recursion stops at the error budget instead of running
        // to the window edge; mass and mean must be unaffected at any λ.
        for &lambda in &[7.0, 50.0, 500.0, 20_000.0] {
            let w = PoissonWindow::new(lambda, 1e-12).unwrap();
            assert!((w.total_mass() - 1.0).abs() < 1e-9, "λ = {lambda}");
            let mean: f64 = w
                .weights
                .iter()
                .enumerate()
                .map(|(i, &p)| (w.left + i) as f64 * p)
                .sum();
            assert!((mean - lambda).abs() < 1.0, "λ = {lambda}, mean {mean}");
            assert!(w.weights.iter().all(|&x| x.is_finite() && x >= 0.0));
            // No zero padding survives at the edges of the kept window.
            assert!(w.weights[0] > 0.0 && *w.weights.last().unwrap() > 0.0);
        }
    }

    #[test]
    fn poisson_window_zero_lambda() {
        let w = PoissonWindow::new(0.0, 1e-12).unwrap();
        assert_eq!(w.weights, vec![1.0]);
    }

    #[test]
    fn poisson_window_validates() {
        assert!(PoissonWindow::new(-1.0, 1e-12).is_err());
        assert!(PoissonWindow::new(1.0, 0.0).is_err());
        assert!(PoissonWindow::new(1.0, 1.5).is_err());
        assert!(PoissonWindow::new(f64::NAN, 1e-12).is_err());
    }

    #[test]
    fn two_state_transient_matches_analytic() {
        // For rates a=2 (a->b), b=1 (b->a): pi_a(t) from (1,0) is
        // 1/3 + 2/3 e^{-3t}.
        let c = two_state();
        for &t in &[0.1, 0.5, 1.0, 3.0] {
            let pi = transient_distribution(&c, &[1.0, 0.0], t, 1e-13).unwrap();
            let exact = 1.0 / 3.0 + 2.0 / 3.0 * (-3.0 * t).exp();
            assert!((pi[0] - exact).abs() < 1e-10, "t = {t}");
            assert!((pi[0] + pi[1] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn uniformization_matches_expm() {
        let c = CtmcBuilder::new()
            .state("a", ["a"])
            .state("b", ["b"])
            .state("c", ["c"])
            .transition("a", "b", 1.3)
            .unwrap()
            .transition("b", "c", 0.7)
            .unwrap()
            .transition("c", "a", 2.5)
            .unwrap()
            .transition("b", "a", 0.2)
            .unwrap()
            .build()
            .unwrap();
        for &t in &[0.3, 1.7, 8.0] {
            let u = transient_matrix(&c, t, 1e-13).unwrap();
            let e = transient_matrix_expm(&c, t).unwrap();
            let diff = u.sub_matrix(&e).unwrap().norm_max();
            assert!(diff < 1e-9, "t = {t}, diff = {diff}");
        }
    }

    #[test]
    fn zero_time_and_frozen_chain() {
        let c = two_state();
        let pi = transient_distribution(&c, &[0.4, 0.6], 0.0, 1e-12).unwrap();
        assert_eq!(pi, vec![0.4, 0.6]);
        // A chain with no transitions stays put.
        let frozen = CtmcBuilder::new().state("only", ["x"]).build().unwrap();
        let pi = transient_distribution(&frozen, &[1.0], 5.0, 1e-12).unwrap();
        assert_eq!(pi, vec![1.0]);
        assert_eq!(
            transient_matrix(&frozen, 5.0, 1e-12).unwrap(),
            Matrix::identity(1)
        );
    }

    #[test]
    fn absorbing_state_traps_mass() {
        let c = CtmcBuilder::new()
            .state("live", ["live"])
            .state("dead", ["dead"])
            .transition("live", "dead", 1.0)
            .unwrap()
            .build()
            .unwrap();
        let pi = transient_distribution(&c, &[1.0, 0.0], 50.0, 1e-12).unwrap();
        assert!(pi[1] > 1.0 - 1e-12);
    }

    #[test]
    fn validates_arguments() {
        let c = two_state();
        assert!(transient_distribution(&c, &[0.5, 0.6], 1.0, 1e-12).is_err());
        assert!(transient_distribution(&c, &[1.0, 0.0], -1.0, 1e-12).is_err());
        assert!(transient_matrix(&c, f64::NAN, 1e-12).is_err());
        assert!(transient_matrix_expm(&c, -2.0).is_err());
    }

    #[test]
    fn pooled_matrix_is_bitwise_identical_to_serial() {
        let mut builder = CtmcBuilder::new();
        let names: Vec<String> = (0..40).map(|i| format!("s{i}")).collect();
        for name in &names {
            builder = builder.state(name, [name.as_str()]);
        }
        for i in 0..40 {
            builder = builder
                .transition(&names[i], &names[(i + 1) % 40], 0.5 + (i % 4) as f64)
                .unwrap()
                .transition(&names[i], &names[(i + 7) % 40], 0.3)
                .unwrap();
        }
        let c = builder.build().unwrap();
        let serial = transient_matrix(&c, 1.1, 1e-12).unwrap();
        for threads in [1, 2, 8] {
            let pool = mfcsl_pool::ThreadPool::new(threads);
            let parallel = transient_matrix_on(Some(&pool), &c, 1.1, 1e-12).unwrap();
            for (a, b) in serial.as_slice().iter().zip(parallel.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn sparse_backend_matrix_matches_dense() {
        use crate::propagator::{DensePropagator, SparsePropagator};
        use crate::sparse::SparseCtmc;
        let c = two_state();
        let sparse = SparseCtmc::from_triplets(2, &[(0, 1, 2.0), (1, 0, 1.0)]).unwrap();
        let dp = DensePropagator::new(&c);
        let sp = SparsePropagator::new(&sparse);
        let md = transient_matrix_for(None, &dp, 0.9, 1e-13).unwrap();
        let ms = transient_matrix_for(None, &sp, 0.9, 1e-13).unwrap();
        for (a, b) in md.as_slice().iter().zip(ms.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    proptest! {
        /// Uniformization and expm agree on random 3-state chains, and the
        /// result rows are distributions (Chapman–Kolmogorov sanity).
        #[test]
        fn prop_uniformization_vs_expm(
            rates in proptest::collection::vec(0.0_f64..4.0, 6),
            t in 0.01_f64..5.0,
        ) {
            let c = CtmcBuilder::new()
                .state("a", ["a"]).state("b", ["b"]).state("c", ["c"])
                .transition("a", "b", rates[0]).unwrap()
                .transition("a", "c", rates[1]).unwrap()
                .transition("b", "a", rates[2]).unwrap()
                .transition("b", "c", rates[3]).unwrap()
                .transition("c", "a", rates[4]).unwrap()
                .transition("c", "b", rates[5]).unwrap()
                .build().unwrap();
            let u = transient_matrix(&c, t, 1e-13).unwrap();
            let e = transient_matrix_expm(&c, t).unwrap();
            prop_assert!(u.sub_matrix(&e).unwrap().norm_max() < 1e-8);
            for i in 0..3 {
                let s: f64 = u.row(i).iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-9);
                prop_assert!(u.row(i).iter().all(|&v| v >= -1e-12));
            }
        }

        /// Semigroup property: Π(s)Π(t) = Π(s+t).
        #[test]
        fn prop_chapman_kolmogorov(s in 0.05_f64..2.0, t in 0.05_f64..2.0) {
            let c = two_state();
            let ps = transient_matrix(&c, s, 1e-13).unwrap();
            let pt = transient_matrix(&c, t, 1e-13).unwrap();
            let pst = transient_matrix(&c, s + t, 1e-13).unwrap();
            let prod = ps.matmul(&pt).unwrap();
            prop_assert!(prod.sub_matrix(&pst).unwrap().norm_max() < 1e-9);
        }
    }
}
