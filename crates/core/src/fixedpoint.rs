//! Stationary points of the mean-field ODE (Eq. 2 of the paper).
//!
//! The stationary occupancy `m̃` solves `m̃·Q(m̃) = 0` on the simplex. It is
//! found by damped Newton iteration in reduced coordinates (the last
//! fraction is eliminated through `Σ m_j = 1`) and classified by the
//! spectrum of the reduced Jacobian: the paper (and its reference \[17\])
//! stresses that the fixed point approximates the steady state only for
//! well-behaved models — [`Stability`] makes that check explicit.

use mfcsl_math::eigen::spectral_abscissa;
use mfcsl_math::lu::LuDecomposition;
use mfcsl_math::Matrix;
use mfcsl_ode::OdeOptions;

use crate::{meanfield, CoreError, LocalModel, Occupancy};

/// Local stability classification of a fixed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    /// All reduced-Jacobian eigenvalues have negative real part: the fixed
    /// point attracts nearby trajectories and can serve as the steady-state
    /// distribution of the local model (Sec. IV-D).
    Stable,
    /// Some eigenvalue has positive real part.
    Unstable,
    /// The spectral abscissa is within tolerance of zero; no conclusion.
    Marginal,
}

/// A located stationary occupancy with diagnostics.
#[derive(Debug, Clone)]
pub struct FixedPoint {
    /// The stationary occupancy `m̃`.
    pub occupancy: Occupancy,
    /// Max-norm of the drift `m̃·Q(m̃)` at the solution.
    pub residual: f64,
    /// Stability classification.
    pub stability: Stability,
    /// Largest real part over the reduced-Jacobian spectrum.
    pub spectral_abscissa: f64,
    /// Right-hand-side evaluations of the settle integration that produced
    /// the Newton guess ([`from_initial`]); zero when the guess was given.
    pub settle_rhs_evals: usize,
}

/// Options for the fixed-point search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPointOptions {
    /// Newton convergence tolerance on the drift residual (max norm).
    pub residual_tol: f64,
    /// Maximum Newton iterations.
    pub max_iters: usize,
    /// Finite-difference step for the Jacobian.
    pub fd_eps: f64,
    /// Spectral-abscissa band classified as [`Stability::Marginal`].
    pub stability_tol: f64,
}

impl Default for FixedPointOptions {
    fn default() -> Self {
        FixedPointOptions {
            residual_tol: 1e-12,
            max_iters: 200,
            fd_eps: 1e-7,
            stability_tol: 1e-7,
        }
    }
}

/// Refines a guess into a fixed point by damped Newton iteration in reduced
/// simplex coordinates.
///
/// # Errors
///
/// Returns [`CoreError::NoStationaryPoint`] if the iteration fails to
/// converge (the damping guard also rejects divergence) and propagates
/// numerical errors.
pub fn refine(
    model: &LocalModel,
    guess: &Occupancy,
    options: &FixedPointOptions,
) -> Result<FixedPoint, CoreError> {
    let k = model.n_states();
    if guess.len() != k {
        return Err(CoreError::InvalidArgument(format!(
            "guess has {} entries, model has {k} states",
            guess.len()
        )));
    }
    if k == 1 {
        // The one-state model is trivially stationary.
        return Ok(FixedPoint {
            occupancy: guess.clone(),
            residual: 0.0,
            stability: Stability::Stable,
            spectral_abscissa: f64::NEG_INFINITY,
            settle_rhs_evals: 0,
        });
    }
    let reduced_drift = |x: &[f64]| -> Result<Vec<f64>, CoreError> {
        let mut d = model.drift(&expand(x)?)?;
        d.truncate(k - 1);
        Ok(d)
    };
    let mut x: Vec<f64> = guess.as_slice()[..k - 1].to_vec();
    let mut f = reduced_drift(&x)?;
    let mut res = mfcsl_math::vec_ops::norm_inf(&f);
    for _ in 0..options.max_iters {
        if res <= options.residual_tol {
            break;
        }
        // Numerical Jacobian of the reduced drift.
        let jac = reduced_jacobian(model, &x, options)?;
        let step = LuDecomposition::new(&jac)
            .and_then(|lu| lu.solve(&f))
            .map_err(|e| CoreError::NoStationaryPoint(format!("newton system: {e}")))?;
        // Damped update: halve until the residual decreases (or give up).
        let mut lambda = 1.0;
        let mut improved = false;
        for _ in 0..40 {
            let candidate: Vec<f64> = x
                .iter()
                .zip(&step)
                .map(|(xi, si)| (xi - lambda * si).clamp(0.0, 1.0))
                .collect();
            if let Ok(fc) = reduced_drift(&candidate) {
                let rc = mfcsl_math::vec_ops::norm_inf(&fc);
                if rc < res {
                    x = candidate;
                    f = fc;
                    res = rc;
                    improved = true;
                    break;
                }
            }
            lambda *= 0.5;
        }
        if !improved {
            break;
        }
    }
    if res > options.residual_tol.max(1e-9) {
        return Err(CoreError::NoStationaryPoint(format!(
            "newton stalled with residual {res}"
        )));
    }
    let occupancy = expand(&x)?;
    // Stability from the reduced Jacobian at the solution.
    let jac = reduced_jacobian(model, &x, options)?;
    let alpha = spectral_abscissa(&jac)?;
    let stability = if alpha < -options.stability_tol {
        Stability::Stable
    } else if alpha > options.stability_tol {
        Stability::Unstable
    } else {
        Stability::Marginal
    };
    Ok(FixedPoint {
        occupancy,
        residual: res,
        stability,
        spectral_abscissa: alpha,
        settle_rhs_evals: 0,
    })
}

/// Finds the stationary occupancy reached *from* a given initial occupancy:
/// integrates the mean-field ODE for `settle_time`, then polishes with
/// Newton. This is the `m̃` the steady-state operators (`S`, `ES`) use.
///
/// # Errors
///
/// Returns [`CoreError::NoStationaryPoint`] if the trajectory has not
/// settled near a stationary point, and propagates numerical errors.
pub fn from_initial(
    model: &LocalModel,
    m0: &Occupancy,
    settle_time: f64,
    options: &FixedPointOptions,
) -> Result<FixedPoint, CoreError> {
    if !(settle_time > 0.0) || !settle_time.is_finite() {
        return Err(CoreError::InvalidArgument(format!(
            "settle time must be positive and finite, got {settle_time}"
        )));
    }
    let sol = meanfield::solve(model, m0, settle_time, &OdeOptions::default())?;
    let end = sol.occupancy_at(settle_time);
    Ok(FixedPoint {
        settle_rhs_evals: sol.trajectory().stats().rhs_evals,
        ..refine(model, &end, options)?
    })
}

/// Searches for all fixed points from a deterministic battery of starting
/// guesses (simplex corners, the uniform point, and seeded random points),
/// deduplicated by max-norm distance.
///
/// # Errors
///
/// Propagates [`CoreError::InvalidArgument`] for a zero-state model; guess
/// refinements that fail are skipped silently.
pub fn find_all(
    model: &LocalModel,
    n_random: usize,
    seed: u64,
    options: &FixedPointOptions,
) -> Result<Vec<FixedPoint>, CoreError> {
    use rand::SeedableRng;
    let k = model.n_states();
    let mut guesses: Vec<Occupancy> = Vec::new();
    for i in 0..k {
        // Slightly interior corners: exact corners can have degenerate
        // Jacobians for ratio-form rates.
        let mut v = vec![0.01 / (k as f64 - 1.0).max(1.0); k];
        v[i] = 0.99;
        guesses.push(Occupancy::project(v)?);
    }
    guesses.push(Occupancy::uniform(k)?);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for _ in 0..n_random {
        guesses.push(Occupancy::project(mfcsl_math::simplex::sample_uniform(
            &mut rng, k,
        ))?);
    }
    let mut found: Vec<FixedPoint> = Vec::new();
    for g in guesses {
        if let Ok(fp) = refine(model, &g, options) {
            let duplicate = found.iter().any(|existing| {
                existing
                    .occupancy
                    .distance(&fp.occupancy)
                    .map(|d| d < 1e-6)
                    .unwrap_or(false)
            });
            if !duplicate {
                found.push(fp);
            }
        }
    }
    Ok(found)
}

/// Numerical Jacobian of the reduced drift by central differences.
///
/// Probing points may fall slightly outside the simplex (e.g. at a corner
/// fixed point); they are evaluated *raw*, without clamping or
/// renormalizing, because projecting the probes would degenerate columns
/// (a clamped perturbation of one coordinate aliases another's, producing
/// spurious zero eigenvalues at boundary fixed points). Rate functions are
/// smooth formulas defined in a neighbourhood of the simplex, so the raw
/// probe is the honest derivative.
///
/// One probe occupancy, one rate buffer and two drift buffers serve every
/// column.
fn reduced_jacobian(
    model: &LocalModel,
    x: &[f64],
    options: &FixedPointOptions,
) -> Result<Matrix, CoreError> {
    let d = x.len();
    let mut probe = x.to_vec();
    probe.push(0.0);
    let mut rates = vec![0.0; model.sparsity().0.len()];
    let (mut fp, mut fm) = (vec![0.0; d + 1], vec![0.0; d + 1]);
    let mut jac = Matrix::zeros(d, d);
    for j in 0..d {
        let eps = options.fd_eps * (1.0 + x[j].abs());
        probe[j] = x[j] + eps;
        raw_drift(model, &mut probe, &mut rates, &mut fp)?;
        probe[j] = x[j] - eps;
        raw_drift(model, &mut probe, &mut rates, &mut fm)?;
        probe[j] = x[j];
        for i in 0..d {
            jac[(i, j)] = (fp[i] - fm[i]) / (2.0 * eps);
        }
    }
    Ok(jac)
}

/// The unclamped drift at reduced coordinates `probe[..d]`, with the last
/// entry set to the remaining mass; `probe` is handed back for reuse.
fn raw_drift(
    model: &LocalModel,
    probe: &mut Vec<f64>,
    rates: &mut [f64],
    out: &mut [f64],
) -> Result<(), CoreError> {
    let d = probe.len() - 1;
    let head_sum: f64 = probe[..d].iter().sum();
    probe[d] = 1.0 - head_sum;
    let m = Occupancy::new_unchecked(std::mem::take(probe));
    let result = model.drift_into(&m, false, rates, out);
    *probe = m.into_vec();
    result
}

/// Expands reduced coordinates `(m₁, …, m_{K-1})` to a full occupancy.
fn expand(x: &[f64]) -> Result<Occupancy, CoreError> {
    let head_sum: f64 = x.iter().sum();
    let mut v = x.to_vec();
    v.push((1.0 - head_sum).max(0.0));
    Occupancy::project(v)
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

    #[test]
    fn sis_endemic_point_found_and_stable() {
        let model = sis(2.0, 1.0);
        let guess = Occupancy::new(vec![0.4, 0.6]).unwrap();
        let fp = refine(&model, &guess, &FixedPointOptions::default()).unwrap();
        assert!((fp.occupancy[1] - 0.5).abs() < 1e-9, "{fp:?}");
        assert_eq!(fp.stability, Stability::Stable);
        assert!(fp.residual < 1e-10);
    }

    #[test]
    fn sis_disease_free_point_unstable_when_beta_exceeds_gamma() {
        let model = sis(2.0, 1.0);
        let guess = Occupancy::new(vec![0.999, 0.001]).unwrap();
        // Newton may converge to either fixed point from near the corner;
        // refine directly at the corner.
        let fp = refine(
            &model,
            &Occupancy::unit(2, 0).unwrap(),
            &FixedPointOptions::default(),
        )
        .unwrap_or_else(|_| refine(&model, &guess, &FixedPointOptions::default()).unwrap());
        if fp.occupancy[1] < 1e-6 {
            assert_eq!(fp.stability, Stability::Unstable);
        }
    }

    #[test]
    fn subcritical_sis_dies_out() {
        // β < γ: unique stable fixed point at i = 0.
        let model = sis(0.5, 1.0);
        let m0 = Occupancy::new(vec![0.5, 0.5]).unwrap();
        let fp = from_initial(&model, &m0, 60.0, &FixedPointOptions::default()).unwrap();
        assert!(fp.occupancy[1] < 1e-8, "{fp:?}");
        assert_eq!(fp.stability, Stability::Stable);
    }

    #[test]
    fn find_all_locates_both_sis_points() {
        let model = sis(2.0, 1.0);
        let all = find_all(&model, 8, 42, &FixedPointOptions::default()).unwrap();
        let mut infected_fracs: Vec<f64> = all.iter().map(|fp| fp.occupancy[1]).collect();
        infected_fracs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            infected_fracs.iter().any(|&v| v < 1e-6),
            "disease-free point missing: {infected_fracs:?}"
        );
        assert!(
            infected_fracs.iter().any(|&v| (v - 0.5).abs() < 1e-6),
            "endemic point missing: {infected_fracs:?}"
        );
    }

    #[test]
    fn from_initial_on_supercritical_sis() {
        let model = sis(2.0, 1.0);
        let m0 = Occupancy::new(vec![0.9, 0.1]).unwrap();
        let fp = from_initial(&model, &m0, 40.0, &FixedPointOptions::default()).unwrap();
        assert!((fp.occupancy[1] - 0.5).abs() < 1e-8);
    }

    #[test]
    fn one_state_model_is_trivially_stationary() {
        let model = LocalModel::builder().state("only", ["x"]).build().unwrap();
        let fp = refine(
            &model,
            &Occupancy::unit(1, 0).unwrap(),
            &FixedPointOptions::default(),
        )
        .unwrap();
        assert_eq!(fp.occupancy.as_slice(), &[1.0]);
        assert_eq!(fp.stability, Stability::Stable);
    }

    #[test]
    fn validates_arguments() {
        let model = sis(2.0, 1.0);
        let wrong = Occupancy::new(vec![1.0]).unwrap();
        assert!(refine(&model, &wrong, &FixedPointOptions::default()).is_err());
        let m0 = Occupancy::new(vec![0.9, 0.1]).unwrap();
        assert!(from_initial(&model, &m0, -1.0, &FixedPointOptions::default()).is_err());
    }

    #[test]
    fn virus_smart_law_fixed_point_is_disease_free() {
        // Eq. 21 is linear with a stable spectrum for Setting-1 rates as
        // printed in Table II; the unique fixed point is (1, 0, 0).
        let model = LocalModel::builder()
            .state("s1", ["not_infected"])
            .state("s2", ["infected", "inactive"])
            .state("s3", ["infected", "active"])
            .transition("s1", "s2", |m: &Occupancy| {
                if m[0] > 1e-12 {
                    0.9 * m[2] / m[0]
                } else {
                    0.0
                }
            })
            .unwrap()
            .constant_transition("s2", "s1", 0.1)
            .unwrap()
            .constant_transition("s2", "s3", 0.01)
            .unwrap()
            .constant_transition("s3", "s2", 0.3)
            .unwrap()
            .constant_transition("s3", "s1", 0.3)
            .unwrap()
            .build()
            .unwrap();
        let m0 = Occupancy::new(vec![0.8, 0.15, 0.05]).unwrap();
        let fp = from_initial(&model, &m0, 400.0, &FixedPointOptions::default()).unwrap();
        assert!(fp.occupancy[0] > 1.0 - 1e-6, "{fp:?}");
    }
}
