//! Eigenvalues of small dense real matrices.
//!
//! [`eigenvalues`] reduces to upper Hessenberg form by stabilized
//! elementary similarity transformations, followed by the Francis
//! double-shift QR iteration (the classic EISPACK `hqr` scheme). The test
//! suite cross-validates it against an independent oracle: the
//! characteristic polynomial via the Faddeev–LeVerrier recurrence, solved
//! with the Durand–Kerner (Weierstrass) simultaneous root iteration.
//!
//! The mean-field layer uses eigenvalues to classify the stability of fixed
//! points of the occupancy ODE (Sec. II-B of the paper: the stationary point
//! `m̃·Q(m̃) = 0` approximates steady state only when the fluid limit is
//! well-behaved; a negative spectral abscissa of the Jacobian certifies
//! local asymptotic stability).

use crate::{Complex, MathError, Matrix};

/// Maximum Francis QR iterations per eigenvalue before giving up.
const MAX_QR_ITERS: usize = 60;

/// Computes all eigenvalues of a square matrix via Hessenberg reduction and
/// Francis double-shift QR iteration.
///
/// Eigenvalues are returned in no particular order; complex eigenvalues come
/// in conjugate pairs.
///
/// # Errors
///
/// Returns [`MathError::NotSquare`] for rectangular input,
/// [`MathError::InvalidArgument`] for non-finite entries, and
/// [`MathError::NoConvergence`] if the QR iteration stalls (essentially
/// unreachable for the small, well-scaled matrices this crate targets).
///
/// # Example
///
/// ```
/// use mfcsl_math::{eigen::eigenvalues, Matrix};
///
/// # fn main() -> Result<(), mfcsl_math::MathError> {
/// let a = Matrix::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]])?;
/// let mut eig = eigenvalues(&a)?;
/// eig.sort_by(|a, b| a.im.partial_cmp(&b.im).unwrap());
/// assert!((eig[0].im + 1.0).abs() < 1e-12);
/// assert!((eig[1].im - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn eigenvalues(a: &Matrix) -> Result<Vec<Complex>, MathError> {
    a.check_square()?;
    a.check_finite()?;
    let n = a.rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    if n == 1 {
        return Ok(vec![Complex::from_real(a[(0, 0)])]);
    }
    let h = hessenberg(a);
    hqr(h)
}

/// Returns the spectral abscissa `max Re(λ)` over all eigenvalues.
///
/// # Errors
///
/// See [`eigenvalues`]. Additionally returns
/// [`MathError::InvalidArgument`] for the empty matrix, whose spectrum is
/// empty.
pub fn spectral_abscissa(a: &Matrix) -> Result<f64, MathError> {
    let eig = eigenvalues(a)?;
    eig.iter()
        .map(|z| z.re)
        .fold(None, |m: Option<f64>, v| Some(m.map_or(v, |m| m.max(v))))
        .ok_or_else(|| MathError::InvalidArgument("empty matrix has no spectrum".into()))
}

/// Reduces `a` to upper Hessenberg form by stabilized elementary similarity
/// transformations (pivoted Gaussian elimination), zeroing the entries below
/// the first subdiagonal.
///
/// The result has the same eigenvalues as `a`.
#[must_use]
pub fn hessenberg(a: &Matrix) -> Matrix {
    let n = a.rows();
    let mut h = a.clone();
    for m in 1..n.saturating_sub(1) {
        // Find the pivot in column m-1, rows m..n.
        let mut x = 0.0_f64;
        let mut pivot = m;
        for j in m..n {
            if h[(j, m - 1)].abs() > x.abs() {
                x = h[(j, m - 1)];
                pivot = j;
            }
        }
        if pivot != m {
            // Similarity swap: rows then columns.
            for j in 0..n {
                let tmp = h[(pivot, j)];
                h[(pivot, j)] = h[(m, j)];
                h[(m, j)] = tmp;
            }
            for i in 0..n {
                let tmp = h[(i, pivot)];
                h[(i, pivot)] = h[(i, m)];
                h[(i, m)] = tmp;
            }
        }
        if x != 0.0 {
            for i in (m + 1)..n {
                let mut y = h[(i, m - 1)];
                if y != 0.0 {
                    y /= x;
                    h[(i, m - 1)] = y;
                    for j in m..n {
                        let upd = y * h[(m, j)];
                        h[(i, j)] -= upd;
                    }
                    for j in 0..n {
                        let upd = y * h[(j, i)];
                        h[(j, m)] += upd;
                    }
                }
            }
        }
    }
    // The elimination leaves multipliers below the subdiagonal; zero them so
    // downstream code sees a genuine Hessenberg matrix.
    for i in 2..n {
        for j in 0..(i - 1) {
            h[(i, j)] = 0.0;
        }
    }
    h
}

/// `SIGN(a, b)`: magnitude of `a`, sign of `b` (FORTRAN convention).
fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// Francis double-shift QR iteration on an upper Hessenberg matrix
/// (EISPACK `hqr`, adapted to 0-based indexing, eigenvalues only).
#[allow(clippy::too_many_lines)]
fn hqr(mut a: Matrix) -> Result<Vec<Complex>, MathError> {
    let n = a.rows();
    let mut wri = vec![Complex::ZERO; n];
    let mut anorm = 0.0;
    for i in 0..n {
        for j in i.saturating_sub(1)..n {
            anorm += a[(i, j)].abs();
        }
    }
    if anorm == 0.0 {
        return Ok(wri); // the zero matrix
    }
    let mut nn = n as isize - 1;
    let mut t = 0.0_f64;
    'outer: while nn >= 0 {
        let mut its = 0usize;
        loop {
            // Look for a single small subdiagonal element.
            let mut l = nn;
            while l >= 1 {
                let lu = l as usize;
                let mut s = a[(lu - 1, lu - 1)].abs() + a[(lu, lu)].abs();
                if s == 0.0 {
                    s = anorm;
                }
                if a[(lu, lu - 1)].abs() <= f64::EPSILON * s {
                    a[(lu, lu - 1)] = 0.0;
                    break;
                }
                l -= 1;
            }
            let nnu = nn as usize;
            let mut x = a[(nnu, nnu)];
            if l == nn {
                // One real root found.
                wri[nnu] = Complex::from_real(x + t);
                nn -= 1;
                continue 'outer;
            }
            let mut y = a[(nnu - 1, nnu - 1)];
            let mut w = a[(nnu, nnu - 1)] * a[(nnu - 1, nnu)];
            if l == nn - 1 {
                // A 2x2 block: two roots found.
                let p = 0.5 * (y - x);
                let q = p * p + w;
                let mut z = q.abs().sqrt();
                let x = x + t;
                if q >= 0.0 {
                    z = p + sign(z, p);
                    let r1 = x + z;
                    wri[nnu - 1] = Complex::from_real(r1);
                    wri[nnu] = Complex::from_real(if z != 0.0 { x - w / z } else { r1 });
                } else {
                    wri[nnu] = Complex::new(x + p, z);
                    wri[nnu - 1] = Complex::new(x + p, -z);
                }
                nn -= 2;
                continue 'outer;
            }
            // No root found yet; perform a double QR step.
            if its == MAX_QR_ITERS {
                return Err(MathError::NoConvergence {
                    iterations: its,
                    context: "francis qr iteration".into(),
                });
            }
            if its == 10 || its == 20 {
                // Exceptional shift to break symmetry-induced cycles.
                t += x;
                for i in 0..=nnu {
                    a[(i, i)] -= x;
                }
                let s = a[(nnu, nnu - 1)].abs() + a[(nnu - 1, nnu - 2)].abs();
                x = 0.75 * s;
                y = x;
                w = -0.4375 * s * s;
            }
            its += 1;
            // Find two consecutive small subdiagonal elements (start of bulge).
            let mut m = nn - 2;
            let mut p = 0.0_f64;
            let mut q = 0.0_f64;
            let mut r = 0.0_f64;
            while m >= l {
                let mu = m as usize;
                let z = a[(mu, mu)];
                let rr = x - z;
                let ss = y - z;
                p = (rr * ss - w) / a[(mu + 1, mu)] + a[(mu, mu + 1)];
                q = a[(mu + 1, mu + 1)] - z - rr - ss;
                r = a[(mu + 2, mu + 1)];
                let s = p.abs() + q.abs() + r.abs();
                p /= s;
                q /= s;
                r /= s;
                if m == l {
                    break;
                }
                let u = a[(mu, mu - 1)].abs() * (q.abs() + r.abs());
                let v = p.abs() * (a[(mu - 1, mu - 1)].abs() + z.abs() + a[(mu + 1, mu + 1)].abs());
                if u <= f64::EPSILON * v {
                    break;
                }
                m -= 1;
            }
            let mu = m as usize;
            for i in (mu + 2)..=nnu {
                a[(i, i - 2)] = 0.0;
            }
            for i in (mu + 3)..=nnu {
                a[(i, i - 3)] = 0.0;
            }
            // Double QR step on rows l..=nn and columns m..=nn.
            for k in mu..nnu {
                let mut scale = 0.0_f64;
                if k != mu {
                    p = a[(k, k - 1)];
                    q = a[(k + 1, k - 1)];
                    r = if k + 1 != nnu { a[(k + 2, k - 1)] } else { 0.0 };
                    scale = p.abs() + q.abs() + r.abs();
                    if scale != 0.0 {
                        p /= scale;
                        q /= scale;
                        r /= scale;
                    }
                }
                let s = sign((p * p + q * q + r * r).sqrt(), p);
                if s == 0.0 {
                    continue;
                }
                if k == mu {
                    if l != m {
                        a[(k, k - 1)] = -a[(k, k - 1)];
                    }
                } else {
                    a[(k, k - 1)] = -s * scale;
                }
                p += s;
                let hx = p / s;
                let hy = q / s;
                let hz = r / s;
                q /= p;
                r /= p;
                // Row modification.
                for j in k..=nnu {
                    let mut pp = a[(k, j)] + q * a[(k + 1, j)];
                    if k + 1 != nnu {
                        pp += r * a[(k + 2, j)];
                        a[(k + 2, j)] -= pp * hz;
                    }
                    a[(k + 1, j)] -= pp * hy;
                    a[(k, j)] -= pp * hx;
                }
                // Column modification.
                let mmin = nnu.min(k + 3);
                for i in (l as usize)..=mmin {
                    let mut pp = hx * a[(i, k)] + hy * a[(i, k + 1)];
                    if k + 1 != nnu {
                        pp += hz * a[(i, k + 2)];
                        a[(i, k + 2)] -= pp * r;
                    }
                    a[(i, k + 1)] -= pp * q;
                    a[(i, k)] -= pp;
                }
            }
        }
    }
    Ok(wri)
}

/// Computes the coefficients of the characteristic polynomial
/// `p(λ) = λⁿ + c₁λⁿ⁻¹ + … + cₙ` via the Faddeev–LeVerrier recurrence.
///
/// The returned vector is `[1, c₁, …, cₙ]` (monic, highest degree first).
///
/// # Errors
///
/// Returns [`MathError::NotSquare`] for rectangular input.
#[cfg(test)]
fn char_poly(a: &Matrix) -> Result<Vec<f64>, MathError> {
    a.check_square()?;
    let n = a.rows();
    let mut coeffs = vec![1.0];
    let mut m = Matrix::zeros(n, n);
    for k in 1..=n {
        // M_k = A (M_{k-1} + c_{k-1} I)
        let mut shifted = m.clone();
        let c_prev = *coeffs.last().expect("coeffs nonempty");
        for i in 0..n {
            shifted[(i, i)] += c_prev;
        }
        m = a.matmul(&shifted)?;
        let c_k = -m.trace()? / k as f64;
        coeffs.push(c_k);
    }
    Ok(coeffs)
}

/// Finds all complex roots of a monic real polynomial (coefficients highest
/// degree first, leading coefficient need not be exactly 1) using the
/// Durand–Kerner simultaneous iteration.
///
/// # Errors
///
/// Returns [`MathError::InvalidArgument`] if the polynomial has degree < 1
/// or a zero leading coefficient, and [`MathError::NoConvergence`] if the
/// iteration fails to settle.
#[cfg(test)]
fn poly_roots(coeffs: &[f64]) -> Result<Vec<Complex>, MathError> {
    if coeffs.len() < 2 {
        return Err(MathError::InvalidArgument(
            "polynomial must have degree at least 1".into(),
        ));
    }
    if coeffs[0] == 0.0 {
        return Err(MathError::InvalidArgument(
            "leading coefficient must be nonzero".into(),
        ));
    }
    let degree = coeffs.len() - 1;
    // Normalize to monic.
    let monic: Vec<f64> = coeffs.iter().map(|c| c / coeffs[0]).collect();
    // Cauchy bound on root magnitudes.
    let bound = 1.0 + monic[1..].iter().fold(0.0_f64, |m, c| m.max(c.abs()));
    // Initial guesses: non-real, non-symmetric spiral inside the bound.
    let seed = Complex::new(0.4, 0.9);
    let mut roots: Vec<Complex> = Vec::with_capacity(degree);
    let mut z = Complex::new(bound * 0.5, bound * 0.3);
    for _ in 0..degree {
        z = z * seed + Complex::new(0.1, 0.07);
        roots.push(z);
    }
    let eval = |z: Complex| -> Complex {
        let mut acc = Complex::ZERO;
        for &c in &monic {
            acc = acc * z + Complex::from_real(c);
        }
        acc
    };
    let tol = 1e-13 * bound.max(1.0);
    for _iter in 0..500 {
        let mut max_step = 0.0_f64;
        for i in 0..degree {
            let zi = roots[i];
            let mut denom = Complex::ONE;
            for (j, &zj) in roots.iter().enumerate() {
                if j != i {
                    denom = denom * (zi - zj);
                }
            }
            if denom.abs() == 0.0 {
                // Perturb coincident guesses.
                roots[i] = zi + Complex::new(1e-6 * bound, 1e-6 * bound);
                max_step = f64::INFINITY;
                continue;
            }
            let step = eval(zi) / denom;
            roots[i] = zi - step;
            max_step = max_step.max(step.abs());
        }
        if max_step < tol {
            // Snap conjugate-pair asymmetry: tiny imaginary parts are noise.
            for root in &mut roots {
                if root.im.abs() < tol * 10.0 {
                    root.im = 0.0;
                }
            }
            return Ok(roots);
        }
    }
    Err(MathError::NoConvergence {
        iterations: 500,
        context: "durand-kerner root iteration".into(),
    })
}

/// Computes eigenvalues through the characteristic polynomial
/// (Faddeev–LeVerrier + Durand–Kerner): the test suite's independent
/// oracle for [`eigenvalues`].
///
/// # Errors
///
/// See [`char_poly`] and [`poly_roots`].
#[cfg(test)]
fn eigenvalues_char_poly(a: &Matrix) -> Result<Vec<Complex>, MathError> {
    let n = a.rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    poly_roots(&char_poly(a)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sorted_by_re_im(mut v: Vec<Complex>) -> Vec<Complex> {
        v.sort_by(|a, b| {
            a.re.partial_cmp(&b.re)
                .unwrap()
                .then(a.im.partial_cmp(&b.im).unwrap())
        });
        v
    }

    fn assert_spectra_close(a: Vec<Complex>, b: Vec<Complex>, tol: f64) {
        // Greedy nearest-neighbour matching: sorting is unstable for
        // conjugate pairs whose real parts differ only in the last ulp.
        assert_eq!(a.len(), b.len());
        let mut remaining = b;
        for x in &a {
            let (idx, dist) = remaining
                .iter()
                .enumerate()
                .map(|(i, y)| (i, (*x - *y).abs()))
                .min_by(|(_, d1), (_, d2)| d1.partial_cmp(d2).unwrap())
                .expect("nonempty");
            assert!(dist < tol, "no match for {x} within {tol} (closest {dist})");
            remaining.swap_remove(idx);
        }
    }

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::from_diag(&[3.0, -1.0, 7.0]);
        let eig = sorted_by_re_im(eigenvalues(&a).unwrap());
        assert!((eig[0].re + 1.0).abs() < 1e-12);
        assert!((eig[1].re - 3.0).abs() < 1e-12);
        assert!((eig[2].re - 7.0).abs() < 1e-12);
        for e in &eig {
            assert_eq!(e.im, 0.0);
        }
    }

    #[test]
    fn complex_pair_of_rotation() {
        let a = Matrix::from_rows(&[&[0.0, -2.0], &[2.0, 0.0]]).unwrap();
        let eig = sorted_by_re_im(eigenvalues(&a).unwrap());
        assert!((eig[0].im + 2.0).abs() < 1e-12);
        assert!((eig[1].im - 2.0).abs() < 1e-12);
        assert!(eig[0].re.abs() < 1e-12);
    }

    #[test]
    fn known_3x3() {
        // Companion matrix of (λ-1)(λ-2)(λ-3) = λ³ - 6λ² + 11λ - 6.
        let a =
            Matrix::from_rows(&[&[6.0, -11.0, 6.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]).unwrap();
        let eig = sorted_by_re_im(eigenvalues(&a).unwrap());
        for (e, expected) in eig.iter().zip(&[1.0, 2.0, 3.0]) {
            assert!((e.re - expected).abs() < 1e-9, "{eig:?}");
            assert!(e.im.abs() < 1e-9);
        }
    }

    #[test]
    fn repeated_eigenvalues() {
        // Jordan-like block: eigenvalue 2 with multiplicity 2.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 2.0]]).unwrap();
        let eig = eigenvalues(&a).unwrap();
        for e in eig {
            assert!((e.re - 2.0).abs() < 1e-8);
            assert!(e.im.abs() < 1e-8);
        }
    }

    #[test]
    fn zero_and_identity() {
        let eig = eigenvalues(&Matrix::zeros(3, 3)).unwrap();
        for e in eig {
            assert_eq!(e, Complex::ZERO);
        }
        let eig = eigenvalues(&Matrix::identity(5)).unwrap();
        for e in eig {
            assert!((e.re - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(eigenvalues(&Matrix::zeros(0, 0)).unwrap().is_empty());
        let a = Matrix::from_rows(&[&[42.0]]).unwrap();
        assert_eq!(eigenvalues(&a).unwrap(), vec![Complex::from_real(42.0)]);
    }

    #[test]
    fn generator_matrix_spectrum() {
        // CTMC generators always have eigenvalue 0 and the rest with
        // nonpositive real part (Gershgorin).
        let q =
            Matrix::from_rows(&[&[-2.0, 1.5, 0.5], &[0.3, -0.8, 0.5], &[0.0, 2.0, -2.0]]).unwrap();
        let eig = eigenvalues(&q).unwrap();
        let max_re = eig.iter().map(|z| z.re).fold(f64::NEG_INFINITY, f64::max);
        assert!((max_re - 0.0).abs() < 1e-10);
        assert!((spectral_abscissa(&q).unwrap()).abs() < 1e-10);
    }

    #[test]
    fn char_poly_of_known_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        // λ² - 5λ - 2
        let c = char_poly(&a).unwrap();
        assert_eq!(c.len(), 3);
        assert!((c[0] - 1.0).abs() < 1e-14);
        assert!((c[1] + 5.0).abs() < 1e-12);
        assert!((c[2] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn poly_roots_quadratic() {
        // (x-1)(x+3) = x² + 2x - 3
        let roots = sorted_by_re_im(poly_roots(&[1.0, 2.0, -3.0]).unwrap());
        assert!((roots[0].re + 3.0).abs() < 1e-10);
        assert!((roots[1].re - 1.0).abs() < 1e-10);
    }

    #[test]
    fn poly_roots_complex() {
        // x² + 1
        let roots = sorted_by_re_im(poly_roots(&[1.0, 0.0, 1.0]).unwrap());
        assert!((roots[0].im + 1.0).abs() < 1e-10);
        assert!((roots[1].im - 1.0).abs() < 1e-10);
    }

    #[test]
    fn poly_roots_validates_input() {
        assert!(poly_roots(&[1.0]).is_err());
        assert!(poly_roots(&[0.0, 1.0, 2.0]).is_err());
    }

    #[test]
    fn qr_and_char_poly_agree_on_fixed_example() {
        let a = Matrix::from_rows(&[
            &[0.5, -1.2, 0.3, 0.0],
            &[2.0, 0.1, -0.7, 1.1],
            &[0.0, 0.9, -1.5, 0.2],
            &[0.4, 0.0, 0.6, -0.3],
        ])
        .unwrap();
        let qr = eigenvalues(&a).unwrap();
        let dk = eigenvalues_char_poly(&a).unwrap();
        assert_spectra_close(qr, dk, 1e-7);
    }

    #[test]
    fn rejects_rectangular() {
        assert!(eigenvalues(&Matrix::zeros(2, 3)).is_err());
        assert!(char_poly(&Matrix::zeros(2, 3)).is_err());
    }

    proptest! {
        /// The two eigenvalue algorithms agree on random 4x4 matrices, and
        /// the spectrum sum matches the trace.
        #[test]
        fn prop_qr_matches_char_poly(entries in proptest::collection::vec(-3.0_f64..3.0, 16)) {
            let a = Matrix::from_vec(4, 4, entries).unwrap();
            let qr = eigenvalues(&a).unwrap();
            let dk = eigenvalues_char_poly(&a).unwrap();
            assert_spectra_close(qr.clone(), dk, 1e-5);
            let sum_re: f64 = qr.iter().map(|z| z.re).sum();
            let sum_im: f64 = qr.iter().map(|z| z.im).sum();
            prop_assert!((sum_re - a.trace().unwrap()).abs() < 1e-8);
            prop_assert!(sum_im.abs() < 1e-8);
        }

        /// Eigenvalues of a similarity transform are unchanged:
        /// spectrum(P A P^-1) = spectrum(A) using a shear P.
        #[test]
        fn prop_similarity_invariant(
            entries in proptest::collection::vec(-2.0_f64..2.0, 9),
            shear in -2.0_f64..2.0,
        ) {
            let a = Matrix::from_vec(3, 3, entries).unwrap();
            let mut p = Matrix::identity(3);
            p[(0, 1)] = shear;
            let mut pinv = Matrix::identity(3);
            pinv[(0, 1)] = -shear;
            let b = p.matmul(&a).unwrap().matmul(&pinv).unwrap();
            let ea = eigenvalues(&a).unwrap();
            let eb = eigenvalues(&b).unwrap();
            assert_spectra_close(ea, eb, 1e-6 * (1.0 + shear.abs()).powi(2));
        }
    }
}
