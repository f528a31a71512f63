//! Interpolation utilities.
//!
//! Dense ODE output is represented as piecewise cubic Hermite data: at each
//! accepted step the solver records the state and its derivative, which pins
//! down a C¹ cubic on every step interval. The model checker evaluates
//! occupancy trajectories `m̄(t)` at the arbitrary times requested by the
//! Kolmogorov integrations through this representation.

use serde::{Deserialize, Serialize};

use crate::MathError;

/// Evaluates the cubic Hermite interpolant on `[t0, t1]` with endpoint
/// values `y0, y1` and endpoint derivatives `d0, d1`, at parameter `t`.
///
/// # Example
///
/// ```
/// use mfcsl_math::interp::hermite;
///
/// // Interpolating f(t) = t^2 on [0, 1] (derivatives 0 and 2) is exact.
/// let y = hermite(0.0, 1.0, 0.0, 1.0, 0.0, 2.0, 0.5);
/// assert!((y - 0.25).abs() < 1e-15);
/// ```
#[must_use]
#[allow(clippy::many_single_char_names)]
pub fn hermite(t0: f64, t1: f64, y0: f64, y1: f64, d0: f64, d1: f64, t: f64) -> f64 {
    let h = t1 - t0;
    if h == 0.0 {
        return y0;
    }
    let s = (t - t0) / h;
    let s2 = s * s;
    let s3 = s2 * s;
    let h00 = 2.0 * s3 - 3.0 * s2 + 1.0;
    let h10 = s3 - 2.0 * s2 + s;
    let h01 = -2.0 * s3 + 3.0 * s2;
    let h11 = s3 - s2;
    h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1
}

/// Evaluates the derivative of the cubic Hermite interpolant at `t`.
#[must_use]
#[allow(clippy::many_single_char_names)]
pub fn hermite_derivative(t0: f64, t1: f64, y0: f64, y1: f64, d0: f64, d1: f64, t: f64) -> f64 {
    let h = t1 - t0;
    if h == 0.0 {
        return d0;
    }
    let s = (t - t0) / h;
    let s2 = s * s;
    let dh00 = (6.0 * s2 - 6.0 * s) / h;
    let dh10 = 3.0 * s2 - 4.0 * s + 1.0;
    let dh01 = (-6.0 * s2 + 6.0 * s) / h;
    let dh11 = 3.0 * s2 - 2.0 * s;
    dh00 * y0 + dh10 * d0 + dh01 * y1 + dh11 * d1
}

/// Piecewise-linear interpolation on sorted knots.
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] if `xs` and `ys` differ in
/// length and [`MathError::InvalidArgument`] if fewer than two knots are
/// given or the knots are not strictly increasing. Queries outside the knot
/// range clamp to the boundary values.
pub fn linear(xs: &[f64], ys: &[f64], x: f64) -> Result<f64, MathError> {
    if xs.len() != ys.len() {
        return Err(MathError::DimensionMismatch {
            expected: format!("len {}", xs.len()),
            found: format!("len {}", ys.len()),
        });
    }
    if xs.len() < 2 {
        return Err(MathError::InvalidArgument(
            "linear interpolation needs at least two knots".into(),
        ));
    }
    if xs.windows(2).any(|w| w[0] >= w[1]) {
        return Err(MathError::InvalidArgument(
            "knots must be strictly increasing".into(),
        ));
    }
    if x <= xs[0] {
        return Ok(ys[0]);
    }
    if x >= xs[xs.len() - 1] {
        return Ok(ys[ys.len() - 1]);
    }
    let i = match xs.partition_point(|&k| k <= x) {
        0 => 0,
        p => p - 1,
    };
    let w = (x - xs[i]) / (xs[i + 1] - xs[i]);
    Ok(ys[i] * (1.0 - w) + ys[i + 1] * w)
}

/// A vector-valued piecewise cubic Hermite curve (the dense-output format of
/// the ODE solvers): knot times with values and derivatives per component.
///
/// Knot data is stored in two flat knot-major arenas (`ys[k*dim..(k+1)*dim]`
/// is the state at `knots()[k]`), so appending an accepted solver step is one
/// `extend_from_slice` per arena instead of a boxed `Vec` clone, and
/// evaluation walks contiguous memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HermiteCurve {
    dim: usize,
    ts: Vec<f64>,
    /// Flat knot-major state values: `ys[k*dim..(k+1)*dim]` is the state at
    /// `ts[k]`.
    ys: Vec<f64>,
    /// Flat knot-major state derivatives, same layout as `ys`.
    ds: Vec<f64>,
}

impl HermiteCurve {
    /// Builds a curve from knot times, values and derivatives.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidArgument`] if the knots are not strictly
    /// increasing or fewer than one knot is supplied, and
    /// [`MathError::DimensionMismatch`] if the arrays disagree in length or
    /// the state vectors disagree in dimension.
    pub fn new(ts: Vec<f64>, ys: Vec<Vec<f64>>, ds: Vec<Vec<f64>>) -> Result<Self, MathError> {
        if ts.is_empty() {
            return Err(MathError::InvalidArgument(
                "curve needs at least one knot".into(),
            ));
        }
        if ts.len() != ys.len() || ts.len() != ds.len() {
            return Err(MathError::DimensionMismatch {
                expected: format!("{} knots", ts.len()),
                found: format!("{} values / {} derivatives", ys.len(), ds.len()),
            });
        }
        let dim = ys[0].len();
        for (y, d) in ys.iter().zip(&ds) {
            if y.len() != dim || d.len() != dim {
                return Err(MathError::DimensionMismatch {
                    expected: format!("state dim {dim}"),
                    found: format!("state dim {} / {}", y.len(), d.len()),
                });
            }
        }
        let mut ys_flat = Vec::with_capacity(ts.len() * dim);
        let mut ds_flat = Vec::with_capacity(ts.len() * dim);
        for (y, d) in ys.iter().zip(&ds) {
            ys_flat.extend_from_slice(y);
            ds_flat.extend_from_slice(d);
        }
        Self::from_flat(dim, ts, ys_flat, ds_flat)
    }

    /// Builds a curve directly from flat knot-major arenas, the storage the
    /// solver workspace accumulates accepted steps into.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidArgument`] if no knot is supplied or the
    /// knots are not strictly increasing, and
    /// [`MathError::DimensionMismatch`] if an arena length is not
    /// `ts.len() * dim`.
    pub fn from_flat(
        dim: usize,
        ts: Vec<f64>,
        ys: Vec<f64>,
        ds: Vec<f64>,
    ) -> Result<Self, MathError> {
        if ts.is_empty() {
            return Err(MathError::InvalidArgument(
                "curve needs at least one knot".into(),
            ));
        }
        if ys.len() != ts.len() * dim || ds.len() != ts.len() * dim {
            return Err(MathError::DimensionMismatch {
                expected: format!("{} knots of dim {dim}", ts.len()),
                found: format!("{} values / {} derivatives", ys.len(), ds.len()),
            });
        }
        if ts.windows(2).any(|w| w[0] >= w[1]) {
            return Err(MathError::InvalidArgument(
                "knot times must be strictly increasing".into(),
            ));
        }
        Ok(HermiteCurve { dim, ts, ys, ds })
    }

    /// State dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// First knot time.
    #[must_use]
    pub fn t_start(&self) -> f64 {
        self.ts[0]
    }

    /// Last knot time.
    #[must_use]
    pub fn t_end(&self) -> f64 {
        *self.ts.last().expect("nonempty")
    }

    /// Knot times.
    #[must_use]
    pub fn knots(&self) -> &[f64] {
        &self.ts
    }

    /// The state vector at knot `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn value_at(&self, k: usize) -> &[f64] {
        &self.ys[k * self.dim..(k + 1) * self.dim]
    }

    /// The state derivative at knot `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn derivative_at(&self, k: usize) -> &[f64] {
        &self.ds[k * self.dim..(k + 1) * self.dim]
    }

    /// Appends `tail` to this curve, producing one curve over the union of
    /// the two time ranges.
    ///
    /// The tail must start exactly (bitwise) at this curve's last knot and
    /// agree there in dimension; the duplicated junction knot is taken from
    /// `self`, so the knot data on `[t_start, t_end]` of the original curve
    /// is preserved bitwise — evaluations on the old range are unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if the state dimensions
    /// differ and [`MathError::InvalidArgument`] if the tail does not start
    /// at this curve's end time.
    pub fn concat(mut self, tail: &HermiteCurve) -> Result<Self, MathError> {
        if tail.dim() != self.dim() {
            return Err(MathError::DimensionMismatch {
                expected: format!("state dim {}", self.dim()),
                found: format!("state dim {}", tail.dim()),
            });
        }
        if tail.t_start() != self.t_end() {
            return Err(MathError::InvalidArgument(format!(
                "cannot concatenate: tail starts at {} but curve ends at {}",
                tail.t_start(),
                self.t_end()
            )));
        }
        self.ts.extend_from_slice(&tail.ts[1..]);
        self.ys.extend_from_slice(&tail.ys[tail.dim..]);
        self.ds.extend_from_slice(&tail.ds[tail.dim..]);
        Ok(self)
    }

    /// Evaluates the curve at `t`, clamping outside `[t_start, t_end]`.
    #[must_use]
    pub fn eval(&self, t: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.dim()];
        self.eval_into(t, &mut out);
        out
    }

    /// Evaluates the curve at `t` into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim()`.
    pub fn eval_into(&self, t: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim(), "output buffer has wrong dimension");
        if t <= self.ts[0] {
            out.copy_from_slice(self.value_at(0));
            return;
        }
        let last = self.ts.len() - 1;
        if t >= self.ts[last] {
            out.copy_from_slice(self.value_at(last));
            return;
        }
        let i = match self.ts.partition_point(|&k| k <= t) {
            0 => 0,
            p => p - 1,
        };
        let (y0, y1) = (self.value_at(i), self.value_at(i + 1));
        let (d0, d1) = (self.derivative_at(i), self.derivative_at(i + 1));
        for (c, out_c) in out.iter_mut().enumerate() {
            *out_c = hermite(self.ts[i], self.ts[i + 1], y0[c], y1[c], d0[c], d1[c], t);
        }
    }

    /// Evaluates the time derivative of the curve at `t` (clamped to the
    /// boundary derivative outside the knot range).
    #[must_use]
    pub fn eval_derivative(&self, t: f64) -> Vec<f64> {
        if t <= self.ts[0] {
            return self.derivative_at(0).to_vec();
        }
        let last = self.ts.len() - 1;
        if t >= self.ts[last] {
            return self.derivative_at(last).to_vec();
        }
        let i = match self.ts.partition_point(|&k| k <= t) {
            0 => 0,
            p => p - 1,
        };
        let (y0, y1) = (self.value_at(i), self.value_at(i + 1));
        let (d0, d1) = (self.derivative_at(i), self.derivative_at(i + 1));
        (0..self.dim())
            .map(|c| hermite_derivative(self.ts[i], self.ts[i + 1], y0[c], y1[c], d0[c], d1[c], t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hermite_reproduces_cubics_exactly() {
        // f(t) = t^3 - 2t + 1 on [1, 3].
        let f = |t: f64| t.powi(3) - 2.0 * t + 1.0;
        let df = |t: f64| 3.0 * t * t - 2.0;
        for &t in &[1.0, 1.5, 2.0, 2.7, 3.0] {
            let y = hermite(1.0, 3.0, f(1.0), f(3.0), df(1.0), df(3.0), t);
            assert!((y - f(t)).abs() < 1e-12, "t={t}");
            let d = hermite_derivative(1.0, 3.0, f(1.0), f(3.0), df(1.0), df(3.0), t);
            assert!((d - df(t)).abs() < 1e-11, "t={t}");
        }
    }

    #[test]
    fn hermite_degenerate_interval() {
        assert_eq!(hermite(1.0, 1.0, 5.0, 7.0, 0.0, 0.0, 1.0), 5.0);
        assert_eq!(hermite_derivative(1.0, 1.0, 5.0, 7.0, 3.0, 9.0, 1.0), 3.0);
    }

    #[test]
    fn linear_interp_basics() {
        let xs = [0.0, 1.0, 3.0];
        let ys = [0.0, 2.0, 2.0];
        assert_eq!(linear(&xs, &ys, 0.5).unwrap(), 1.0);
        assert_eq!(linear(&xs, &ys, 2.0).unwrap(), 2.0);
        // Clamping.
        assert_eq!(linear(&xs, &ys, -1.0).unwrap(), 0.0);
        assert_eq!(linear(&xs, &ys, 9.0).unwrap(), 2.0);
    }

    #[test]
    fn linear_interp_validates() {
        assert!(linear(&[0.0, 1.0], &[0.0], 0.5).is_err());
        assert!(linear(&[0.0], &[0.0], 0.5).is_err());
        assert!(linear(&[0.0, 0.0], &[0.0, 1.0], 0.5).is_err());
    }

    #[test]
    fn curve_validates_inputs() {
        assert!(HermiteCurve::new(vec![], vec![], vec![]).is_err());
        assert!(HermiteCurve::new(vec![0.0, 1.0], vec![vec![0.0]], vec![vec![0.0]]).is_err());
        assert!(HermiteCurve::new(
            vec![0.0, 0.0],
            vec![vec![0.0], vec![1.0]],
            vec![vec![0.0], vec![0.0]]
        )
        .is_err());
        assert!(HermiteCurve::new(
            vec![0.0, 1.0],
            vec![vec![0.0], vec![1.0, 2.0]],
            vec![vec![0.0], vec![0.0]]
        )
        .is_err());
    }

    #[test]
    fn curve_eval_and_clamp() {
        // y(t) = (t^2, -t) on knots 0, 1, 2.
        let ts = vec![0.0, 1.0, 2.0];
        let ys = vec![vec![0.0, 0.0], vec![1.0, -1.0], vec![4.0, -2.0]];
        let ds = vec![vec![0.0, -1.0], vec![2.0, -1.0], vec![4.0, -1.0]];
        let c = HermiteCurve::new(ts, ys, ds).unwrap();
        assert_eq!(c.dim(), 2);
        assert_eq!(c.t_start(), 0.0);
        assert_eq!(c.t_end(), 2.0);
        let y = c.eval(1.5);
        assert!((y[0] - 2.25).abs() < 1e-12);
        assert!((y[1] + 1.5).abs() < 1e-12);
        let d = c.eval_derivative(1.5);
        assert!((d[0] - 3.0).abs() < 1e-12);
        assert!((d[1] + 1.0).abs() < 1e-12);
        // Clamped evaluation.
        assert_eq!(c.eval(-1.0), vec![0.0, 0.0]);
        assert_eq!(c.eval(5.0), vec![4.0, -2.0]);
        assert_eq!(c.eval_derivative(-1.0), vec![0.0, -1.0]);
    }

    #[test]
    fn curve_concat_extends_range_and_preserves_prefix() {
        let a = HermiteCurve::new(
            vec![0.0, 1.0],
            vec![vec![0.0], vec![1.0]],
            vec![vec![0.0], vec![2.0]],
        )
        .unwrap();
        let b = HermiteCurve::new(
            vec![1.0, 2.0],
            vec![vec![1.0], vec![4.0]],
            vec![vec![2.0], vec![4.0]],
        )
        .unwrap();
        let prefix_sample = a.eval(0.5);
        let joined = a.clone().concat(&b).unwrap();
        assert_eq!(joined.t_start(), 0.0);
        assert_eq!(joined.t_end(), 2.0);
        assert_eq!(joined.knots(), &[0.0, 1.0, 2.0]);
        // The old range is untouched, bitwise.
        assert_eq!(joined.eval(0.5), prefix_sample);
        assert_eq!(joined.eval(1.0), vec![1.0]);
        assert!((joined.eval(1.5)[0] - 2.25).abs() < 1e-12);
    }

    #[test]
    fn curve_concat_validates() {
        let a = HermiteCurve::new(vec![0.0], vec![vec![0.0]], vec![vec![0.0]]).unwrap();
        let gap = HermiteCurve::new(vec![2.0], vec![vec![0.0]], vec![vec![0.0]]).unwrap();
        assert!(a.clone().concat(&gap).is_err());
        let wrong_dim =
            HermiteCurve::new(vec![0.0], vec![vec![0.0, 1.0]], vec![vec![0.0, 0.0]]).unwrap();
        assert!(a.concat(&wrong_dim).is_err());
    }

    #[test]
    fn from_flat_matches_nested_and_validates() {
        let nested = HermiteCurve::new(
            vec![0.0, 1.0, 2.0],
            vec![vec![0.0, 0.0], vec![1.0, -1.0], vec![4.0, -2.0]],
            vec![vec![0.0, -1.0], vec![2.0, -1.0], vec![4.0, -1.0]],
        )
        .unwrap();
        let flat = HermiteCurve::from_flat(
            2,
            vec![0.0, 1.0, 2.0],
            vec![0.0, 0.0, 1.0, -1.0, 4.0, -2.0],
            vec![0.0, -1.0, 2.0, -1.0, 4.0, -1.0],
        )
        .unwrap();
        assert_eq!(nested, flat);
        assert_eq!(flat.value_at(1), &[1.0, -1.0]);
        assert_eq!(flat.derivative_at(2), &[4.0, -1.0]);
        // Arena length must be knots * dim.
        assert!(HermiteCurve::from_flat(2, vec![0.0, 1.0], vec![0.0; 3], vec![0.0; 4]).is_err());
        // Empty and non-increasing knots are rejected.
        assert!(HermiteCurve::from_flat(2, vec![], vec![], vec![]).is_err());
        assert!(HermiteCurve::from_flat(1, vec![1.0, 1.0], vec![0.0; 2], vec![0.0; 2]).is_err());
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn eval_into_checks_buffer() {
        let c = HermiteCurve::new(vec![0.0], vec![vec![1.0, 2.0]], vec![vec![0.0, 0.0]]).unwrap();
        let mut buf = [0.0];
        c.eval_into(0.0, &mut buf);
    }

    proptest! {
        /// The Hermite interpolant matches the endpoints exactly.
        #[test]
        fn prop_hermite_endpoint_exact(
            y0 in -10.0_f64..10.0,
            y1 in -10.0_f64..10.0,
            d0 in -10.0_f64..10.0,
            d1 in -10.0_f64..10.0,
        ) {
            let a = hermite(2.0, 5.0, y0, y1, d0, d1, 2.0);
            let b = hermite(2.0, 5.0, y0, y1, d0, d1, 5.0);
            prop_assert!((a - y0).abs() < 1e-12);
            prop_assert!((b - y1).abs() < 1e-12);
        }
    }
}
