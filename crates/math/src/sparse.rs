//! Compressed-sparse-column matrices — the shared storage of the sparse
//! checking lane.
//!
//! Population models with hundreds-to-thousands of local states have
//! generators with `O(K)` transitions, so dense `K × K` storage wastes
//! quadratic memory and the dense kernels waste quadratic time. All sparse
//! code in the workspace (the CSR chain of `mfcsl-ctmc`, the uniformization
//! gather kernels, the iterative steady-state solvers) shares this one CSC
//! type.
//!
//! The column-major layout is deliberate: the hot operation everywhere is
//! the *gather* `out[j] = Σ_i v[i]·A[i][j]` (a row vector times the
//! matrix), and storing columns contiguously with rows in ascending order
//! fixes the floating-point summation order once and for all. Serial and
//! column-blocked parallel code then produce bitwise-identical results —
//! the same reproducibility discipline the dense kernels follow.

// Panic-audited: the sparse lane runs inside long-lived daemon sessions,
// so construction and access paths must return errors, never panic
// (enforced by the verify script's clippy audit).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use crate::error::MathError;
use crate::matrix::Matrix;

/// A sparse matrix in compressed-sparse-column form.
///
/// For column `j`, the stored entries are `(row_idx[k], values[k])` for
/// `k ∈ col_ptr[j]..col_ptr[j+1]`, with rows in strictly ascending order
/// (duplicates are accumulated at construction).
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    n_rows: usize,
    n_cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a CSC matrix from `(row, col, value)` triplets. Duplicate
    /// positions accumulate; explicit zeros are kept (callers that want
    /// them dropped should filter first). Values must be finite.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidArgument`] for zero dimensions,
    /// out-of-range indices, or non-finite values.
    pub fn from_triplets(
        n_rows: usize,
        n_cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, MathError> {
        if n_rows == 0 || n_cols == 0 {
            return Err(MathError::InvalidArgument(
                "matrix dimensions must be positive".into(),
            ));
        }
        for &(r, c, v) in triplets {
            if r >= n_rows || c >= n_cols {
                return Err(MathError::InvalidArgument(format!(
                    "entry ({r}, {c}) out of range for a {n_rows}x{n_cols} matrix"
                )));
            }
            if !v.is_finite() {
                return Err(MathError::InvalidArgument(format!(
                    "value {v} at ({r}, {c}) must be finite"
                )));
            }
        }
        // Counting sort by column, then by row within each column; a second
        // pass merges duplicates so every (row, col) appears once.
        let mut counts = vec![0usize; n_cols + 1];
        for &(_, c, _) in triplets {
            counts[c + 1] += 1;
        }
        for j in 0..n_cols {
            counts[j + 1] += counts[j];
        }
        let mut order: Vec<usize> = vec![0; triplets.len()];
        let mut cursor = counts.clone();
        for (k, &(_, c, _)) in triplets.iter().enumerate() {
            order[cursor[c]] = k;
            cursor[c] += 1;
        }
        let mut col_ptr = vec![0usize; n_cols + 1];
        let mut row_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        for j in 0..n_cols {
            let slice = &mut order[counts[j]..counts[j + 1]];
            slice.sort_unstable_by_key(|&k| triplets[k].0);
            for &k in slice.iter() {
                let (r, _, v) = triplets[k];
                if values.len() > col_ptr[j] && row_idx.last() == Some(&r) {
                    if let Some(lv) = values.last_mut() {
                        *lv += v;
                    }
                    continue;
                }
                row_idx.push(r);
                values.push(v);
            }
            col_ptr[j + 1] = row_idx.len();
        }
        Ok(CscMatrix {
            n_rows,
            n_cols,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Converts a dense matrix, keeping entries with `|a_ij| > drop_tol`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidArgument`] for an empty matrix or
    /// non-finite entries.
    pub fn from_dense(a: &Matrix, drop_tol: f64) -> Result<Self, MathError> {
        let (n_rows, n_cols) = (a.rows(), a.cols());
        let mut triplets = Vec::new();
        for i in 0..n_rows {
            for j in 0..n_cols {
                let v = a[(i, j)];
                if v.abs() > drop_tol {
                    triplets.push((i, j, v));
                }
            }
        }
        CscMatrix::from_triplets(n_rows, n_cols, &triplets)
    }

    /// Number of rows.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The column-pointer array (length `n_cols + 1`).
    #[must_use]
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The row indices of the stored entries, column-major, ascending
    /// within each column.
    #[must_use]
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// The stored values, aligned with [`CscMatrix::row_idx`].
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the stored values (the pattern is fixed) — used to
    /// rescale rates in place, e.g. pre-dividing by a uniformization rate.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The entries of column `j` as `(rows, values)` slices.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// The gather `Σ_i v[i]·A[i][j]` over column `j`, in ascending-row
    /// order — the reproducible summation the sparse kernels are built on.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `v` is shorter than the row count.
    #[must_use]
    pub fn gather(&self, v: &[f64], j: usize) -> f64 {
        debug_assert!(v.len() >= self.n_rows);
        let (rows, vals) = self.col(j);
        let mut acc = 0.0;
        for (&i, &a) in rows.iter().zip(vals) {
            // SAFETY: `from_triplets` validates every row index against
            // `n_rows` and the pattern is immutable afterwards, so
            // `i < n_rows <= v.len()`. Skipping the bounds check matters:
            // this is the innermost loop of every sparse kernel.
            acc += unsafe { *v.get_unchecked(i) } * a;
        }
        acc
    }

    /// The row-vector product `out ← v·A` (`out[j] = Σ_i v[i]·A[i][j]`),
    /// one gather per column.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree.
    pub fn vecmat(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.n_rows, "vector/matrix shape mismatch");
        assert_eq!(out.len(), self.n_cols, "output length mismatch");
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.gather(v, j);
        }
    }

    /// The transpose (a CSC matrix of the transposed pattern). `Aᵀ` in CSC
    /// is exactly `A` in CSR, so this is how row-major access is obtained.
    #[must_use]
    pub fn transpose(&self) -> CscMatrix {
        let mut counts = vec![0usize; self.n_rows + 1];
        for &i in &self.row_idx {
            counts[i + 1] += 1;
        }
        for i in 0..self.n_rows {
            counts[i + 1] += counts[i];
        }
        let col_ptr = counts.clone();
        let mut row_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut cursor = counts;
        // Walking columns in ascending order fills each transposed column
        // with ascending row indices.
        for j in 0..self.n_cols {
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                let i = self.row_idx[k];
                let slot = cursor[i];
                row_idx[slot] = j;
                values[slot] = self.values[k];
                cursor[i] += 1;
            }
        }
        CscMatrix {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Materializes the dense equivalent (test/debug helper; allocates
    /// `n_rows × n_cols`).
    #[must_use]
    pub fn to_dense(&self) -> Matrix {
        let mut a = Matrix::zeros(self.n_rows, self.n_cols);
        for j in 0..self.n_cols {
            let (rows, vals) = self.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                a[(i, j)] += v;
            }
        }
        a
    }

    /// Resident heap footprint of the matrix in bytes — what the sparse
    /// lane reports against the dense `8·n²` it avoided.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.col_ptr.len() * std::mem::size_of::<usize>()
            + self.row_idx.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_and_accumulates() {
        let a =
            CscMatrix::from_triplets(3, 3, &[(2, 0, 1.0), (0, 0, 2.0), (0, 0, 0.5), (1, 2, 3.0)])
                .unwrap();
        assert_eq!(a.nnz(), 3);
        let (rows, vals) = a.col(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[2.5, 1.0]);
        assert_eq!(a.col(1).0, &[] as &[usize]);
        assert_eq!(a.to_dense()[(1, 2)], 3.0);
    }

    #[test]
    fn validation() {
        assert!(CscMatrix::from_triplets(0, 1, &[]).is_err());
        assert!(CscMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CscMatrix::from_triplets(2, 2, &[(0, 2, 1.0)]).is_err());
        assert!(CscMatrix::from_triplets(2, 2, &[(0, 0, f64::NAN)]).is_err());
    }

    #[test]
    fn vecmat_matches_dense() {
        let d = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0], &[4.0, 0.0, 5.0]]).unwrap();
        let s = CscMatrix::from_dense(&d, 0.0).unwrap();
        assert_eq!(s.nnz(), 5);
        let v = [1.0, 2.0, 3.0];
        let mut out = [0.0; 3];
        s.vecmat(&v, &mut out);
        for j in 0..3 {
            let want: f64 = (0..3).map(|i| v[i] * d[(i, j)]).sum();
            assert!((out[j] - want).abs() < 1e-15);
        }
    }

    #[test]
    fn transpose_round_trip() {
        let d = Matrix::from_rows(&[&[0.0, 1.0], &[2.0, 0.0], &[3.0, 4.0]]).unwrap();
        let s = CscMatrix::from_dense(&d, 0.0).unwrap();
        let t = s.transpose();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.n_cols(), 3);
        let back = t.transpose();
        assert_eq!(back, s);
        let td = t.to_dense();
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(td[(j, i)], d[(i, j)]);
            }
        }
    }

    #[test]
    fn memory_is_linear_in_nnz() {
        let tri: Vec<_> = (0..999).map(|i| (i, i + 1, 1.0)).collect();
        let s = CscMatrix::from_triplets(1000, 1000, &tri).unwrap();
        assert!(s.memory_bytes() < 64 * 1024);
    }
}
