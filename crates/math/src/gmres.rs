//! Sparse iterative linear solvers: restarted GMRES and power iteration.
//!
//! The dense steady-state path factors a `K × K` system with LU — `O(K³)`
//! time and `O(K²)` memory, both unaffordable for population models with
//! thousands of local states. The sparse lane replaces it with matrix-free
//! Krylov iteration: the solvers only ever call an `apply(x, y)` operator
//! (`y ← A·x`), so the caller can keep `A` in CSC form, compose it from a
//! generator plus a normalization row, or never materialize it at all.
//!
//! * [`gmres`] — restarted GMRES(m) with modified Gram–Schmidt
//!   orthogonalization and Givens-rotation least squares. The rotation
//!   update keeps the residual norm available at every inner step for
//!   free, so the stopping test costs nothing. Memory is `O(m·n)` for the
//!   Krylov basis — independent of `n²`.
//! * [`stationary_power`] — power iteration on a stochastic step
//!   `x ← x·P`, the unconditionally robust fallback for stationary
//!   distributions when a Krylov solve stagnates (e.g. restarted GMRES on
//!   an ill-conditioned bordered system). Converges at the rate of the
//!   subdominant eigenvalue, each step `O(nnz)`.
//!
//! Both report an [`IterativeStats`] so callers can distinguish "converged"
//! from "hit the budget" and act on it (fall back, tighten, or fail).

// Panic-audited: the sparse lane runs inside long-lived daemon sessions,
// so solver paths must return errors, never panic (enforced by the verify
// script's clippy audit).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use crate::error::MathError;

/// Outcome of an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterativeStats {
    /// Matrix–vector products performed.
    pub iterations: usize,
    /// Final residual estimate (GMRES: `‖b − Ax‖`; power iteration: the
    /// last max-norm update size).
    pub residual: f64,
    /// Whether the tolerance was met within the iteration budget.
    pub converged: bool,
}

fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Solves `A·x = b` with restarted GMRES(m).
///
/// `apply(x, y)` must write `A·x` into `y` (both of length `n`). The
/// returned solution is the best iterate found; check
/// [`IterativeStats::converged`] before trusting it. Convergence means
/// `‖b − Ax‖ ≤ tol·max(‖b‖, 1)`.
///
/// # Errors
///
/// Returns [`MathError::InvalidArgument`] for shape mismatches, a zero
/// restart length, or a non-positive tolerance, and
/// [`MathError::NoConvergence`] if the iteration produces non-finite
/// values (a sign the operator itself is broken).
pub fn gmres<A: FnMut(&[f64], &mut [f64])>(
    mut apply: A,
    b: &[f64],
    x0: &[f64],
    restart: usize,
    max_iter: usize,
    tol: f64,
) -> Result<(Vec<f64>, IterativeStats), MathError> {
    let n = b.len();
    if x0.len() != n {
        return Err(MathError::InvalidArgument(format!(
            "initial guess has length {}, rhs has {n}",
            x0.len()
        )));
    }
    if restart == 0 || max_iter == 0 {
        return Err(MathError::InvalidArgument(
            "restart length and iteration budget must be positive".into(),
        ));
    }
    if !(tol > 0.0) || !tol.is_finite() {
        return Err(MathError::InvalidArgument(format!(
            "tolerance must be positive and finite, got {tol}"
        )));
    }
    let m = restart.min(n).min(max_iter);
    let target = tol * norm2(b).max(1.0);

    let mut x = x0.to_vec();
    let mut iterations = 0usize;
    let mut residual = f64::INFINITY;
    let mut scratch = vec![0.0; n];

    // Krylov basis and the Hessenberg factorization state, reused across
    // restarts.
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
    let mut h_cols: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut cs = vec![0.0; m];
    let mut sn = vec![0.0; m];
    let mut g = vec![0.0; m + 1];

    'outer: while iterations < max_iter {
        // r = b − A·x.
        apply(&x, &mut scratch);
        let mut r: Vec<f64> = b.iter().zip(&scratch).map(|(bi, yi)| bi - yi).collect();
        let beta = norm2(&r);
        if !beta.is_finite() {
            return Err(MathError::NoConvergence {
                iterations,
                context: "GMRES residual is not finite".into(),
            });
        }
        residual = beta;
        if beta <= target {
            break;
        }
        for v in &mut r {
            *v /= beta;
        }
        basis.clear();
        basis.push(r);
        h_cols.clear();
        g.iter_mut().for_each(|v| *v = 0.0);
        g[0] = beta;

        let mut inner = 0usize;
        while inner < m && iterations < max_iter {
            let j = inner;
            apply(&basis[j], &mut scratch);
            iterations += 1;
            // Modified Gram–Schmidt against the basis so far.
            let mut h = vec![0.0; j + 2];
            for (i, vi) in basis.iter().enumerate() {
                let dot: f64 = vi.iter().zip(&scratch).map(|(a, b)| a * b).sum();
                h[i] = dot;
                for (w, &v) in scratch.iter_mut().zip(vi.iter()) {
                    *w -= dot * v;
                }
            }
            let hnext = norm2(&scratch);
            h[j + 1] = hnext;
            // Apply the accumulated Givens rotations to the new column.
            for i in 0..j {
                let (c, s) = (cs[i], sn[i]);
                let t = c * h[i] + s * h[i + 1];
                h[i + 1] = -s * h[i] + c * h[i + 1];
                h[i] = t;
            }
            // New rotation zeroing h[j+1].
            let denom = (h[j] * h[j] + h[j + 1] * h[j + 1]).sqrt();
            let (c, s) = if denom == 0.0 {
                (1.0, 0.0)
            } else {
                (h[j] / denom, h[j + 1] / denom)
            };
            cs[j] = c;
            sn[j] = s;
            h[j] = c * h[j] + s * h[j + 1];
            h[j + 1] = 0.0;
            let t = c * g[j] + s * g[j + 1];
            g[j + 1] = -s * g[j] + c * g[j + 1];
            g[j] = t;
            h_cols.push(h);
            residual = g[j + 1].abs();
            if !residual.is_finite() {
                return Err(MathError::NoConvergence {
                    iterations,
                    context: "GMRES iterate is not finite".into(),
                });
            }
            inner += 1;
            let happy = hnext <= f64::EPSILON * target.max(1.0);
            if residual <= target || happy {
                update_solution(&mut x, &basis, &h_cols, &g, inner);
                if residual <= target {
                    break 'outer;
                }
                // Happy breakdown without convergence: the Krylov space is
                // exhausted; restarting cannot improve the iterate.
                break 'outer;
            }
            if hnext > 0.0 && inner < m {
                let mut next = std::mem::take(&mut scratch);
                for v in &mut next {
                    *v /= hnext;
                }
                basis.push(next);
                scratch = vec![0.0; n];
            }
        }
        update_solution(&mut x, &basis, &h_cols, &g, h_cols.len());
    }
    let converged = residual <= target;
    Ok((
        x,
        IterativeStats {
            iterations,
            residual,
            converged,
        },
    ))
}

/// Back-substitutes the Givens-reduced least-squares system and adds the
/// Krylov correction `V·y` to `x`.
fn update_solution(x: &mut [f64], basis: &[Vec<f64>], h_cols: &[Vec<f64>], g: &[f64], k: usize) {
    if k == 0 {
        return;
    }
    let mut y = vec![0.0; k];
    for i in (0..k).rev() {
        let mut acc = g[i];
        for (j, yj) in y.iter().enumerate().take(k).skip(i + 1) {
            acc -= h_cols[j][i] * yj;
        }
        let d = h_cols[i][i];
        y[i] = if d != 0.0 { acc / d } else { 0.0 };
    }
    for (j, yj) in y.iter().enumerate() {
        for (xi, &vi) in x.iter_mut().zip(&basis[j]) {
            *xi += yj * vi;
        }
    }
}

/// Power iteration for the stationary distribution of a stochastic step.
///
/// `step(x, y)` must write `x·P` into `y` for a (sub)stochastic matrix `P`
/// — typically a uniformized chain `P = I + Q/Λ`. Starting from `x0` (or
/// uniform), iterates with L1 renormalization until the max-norm update
/// falls below `tol` or the budget runs out.
///
/// # Errors
///
/// Returns [`MathError::InvalidArgument`] for an empty system, a bad
/// initial guess, or a non-positive tolerance.
pub fn stationary_power<S: FnMut(&[f64], &mut [f64])>(
    mut step: S,
    n: usize,
    x0: Option<&[f64]>,
    tol: f64,
    max_iter: usize,
) -> Result<(Vec<f64>, IterativeStats), MathError> {
    if n == 0 {
        return Err(MathError::InvalidArgument(
            "system must have at least one state".into(),
        ));
    }
    if !(tol > 0.0) || !tol.is_finite() {
        return Err(MathError::InvalidArgument(format!(
            "tolerance must be positive and finite, got {tol}"
        )));
    }
    let mut x = match x0 {
        Some(v) => {
            if v.len() != n {
                return Err(MathError::InvalidArgument(format!(
                    "initial guess has length {}, expected {n}",
                    v.len()
                )));
            }
            v.to_vec()
        }
        None => vec![1.0 / n as f64; n],
    };
    let mut next = vec![0.0; n];
    let mut iterations = 0usize;
    let mut residual = f64::INFINITY;
    while iterations < max_iter {
        step(&x, &mut next);
        iterations += 1;
        let mass: f64 = next.iter().sum();
        if mass > 0.0 {
            for v in &mut next {
                *v /= mass;
            }
        }
        residual = x
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        std::mem::swap(&mut x, &mut next);
        if residual <= tol {
            break;
        }
    }
    let converged = residual <= tol;
    Ok((
        x,
        IterativeStats {
            iterations,
            residual,
            converged,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::LuDecomposition;
    use crate::matrix::Matrix;
    use crate::sparse::CscMatrix;

    #[test]
    fn gmres_matches_lu_on_dense_system() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, 0.0, 0.0],
            &[1.0, 4.0, 1.0, 0.0],
            &[0.0, 1.0, 4.0, 1.0],
            &[0.5, 0.0, 1.0, 4.0],
        ])
        .unwrap();
        let b = [1.0, -2.0, 0.5, 3.0];
        let exact = LuDecomposition::new(&a).unwrap().solve(&b).unwrap();
        let (x, stats) = gmres(
            |v, y| {
                // y = A v: each output is a row of A dotted with v.
                for (j, o) in y.iter_mut().enumerate() {
                    *o = a.row(j).iter().zip(v).map(|(aij, vi)| aij * vi).sum();
                }
            },
            &b,
            &[0.0; 4],
            4,
            100,
            1e-14,
        )
        .unwrap();
        assert!(stats.converged, "{stats:?}");
        for (g, e) in x.iter().zip(&exact) {
            assert!((g - e).abs() < 1e-12, "{x:?} vs {exact:?}");
        }
    }

    #[test]
    fn gmres_on_sparse_operator() {
        // A diagonally dominant sparse system: tridiagonal, n = 200.
        let n = 200;
        let mut tri = Vec::new();
        for i in 0..n {
            tri.push((i, i, 4.0));
            if i + 1 < n {
                tri.push((i, i + 1, 1.0));
                tri.push((i + 1, i, 1.2));
            }
        }
        let a = CscMatrix::from_triplets(n, n, &tri).unwrap();
        // y = A x: gather over the columns of Aᵀ.
        let at = a.transpose();
        let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let (x, stats) = gmres(|v, y| at.vecmat(v, y), &b, &vec![0.0; n], 50, 2000, 1e-13).unwrap();
        assert!(stats.converged, "{stats:?}");
        // Check the residual directly.
        let mut ax = vec![0.0; n];
        at.vecmat(&x, &mut ax);
        let rnorm = b
            .iter()
            .zip(&ax)
            .map(|(bi, yi)| (bi - yi) * (bi - yi))
            .sum::<f64>()
            .sqrt();
        assert!(rnorm < 1e-10, "residual {rnorm}");
    }

    #[test]
    fn gmres_reports_non_convergence() {
        // One iteration on a system that needs more: not converged.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 1.0]]).unwrap();
        let (_, stats) = gmres(
            |v, y| {
                y[0] = a[(0, 0)] * v[0] + a[(0, 1)] * v[1];
                y[1] = a[(1, 0)] * v[0] + a[(1, 1)] * v[1];
            },
            &[1.0, 1.0],
            &[0.0, 0.0],
            1,
            1,
            1e-14,
        )
        .unwrap();
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 1);
    }

    #[test]
    fn gmres_validation() {
        let id = |v: &[f64], y: &mut [f64]| y.copy_from_slice(v);
        assert!(gmres(id, &[1.0], &[1.0, 2.0], 1, 10, 1e-10).is_err());
        assert!(gmres(id, &[1.0], &[0.0], 0, 10, 1e-10).is_err());
        assert!(gmres(id, &[1.0], &[0.0], 1, 10, -1.0).is_err());
        assert!(gmres(id, &[1.0], &[0.0], 1, 10, f64::NAN).is_err());
    }

    #[test]
    fn power_iteration_finds_two_state_stationary() {
        // P for the chain a->b rate 2, b->a rate 1, uniformized at 3:
        // stationary distribution (1/3, 2/3).
        let p = [[1.0 - 2.0 / 3.0, 2.0 / 3.0], [1.0 / 3.0, 1.0 - 1.0 / 3.0]];
        let (pi, stats) = stationary_power(
            |x, y| {
                y[0] = x[0] * p[0][0] + x[1] * p[1][0];
                y[1] = x[0] * p[0][1] + x[1] * p[1][1];
            },
            2,
            None,
            1e-14,
            10_000,
        )
        .unwrap();
        assert!(stats.converged);
        assert!((pi[0] - 1.0 / 3.0).abs() < 1e-10);
        assert!((pi[1] - 2.0 / 3.0).abs() < 1e-10);
    }

    #[test]
    fn power_iteration_validation() {
        let id = |x: &[f64], y: &mut [f64]| y.copy_from_slice(x);
        assert!(stationary_power(id, 0, None, 1e-10, 10).is_err());
        assert!(stationary_power(id, 2, Some(&[1.0]), 1e-10, 10).is_err());
        assert!(stationary_power(id, 1, None, 0.0, 10).is_err());
    }
}
