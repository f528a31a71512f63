//! Sparse CTMCs on the shared CSC matrix type.
//!
//! The lumped overall chain of a finite-`N` mean-field system has
//! `C(N+K-1, K-1)` states but only `K(K-1)` transitions per state, so a
//! dense generator wastes quadratic memory. [`SparseCtmc`] stores only the
//! off-diagonal rates — as a [`mfcsl_math::CscMatrix`] whose column `j`
//! lists the *incoming* transitions of state `j` — and supports the one
//! operation transient analysis needs: the uniformized vector–matrix
//! product of uniformization. The same CSC storage feeds the sparse
//! stationary solver in [`crate::steady`].

use mfcsl_math::CscMatrix;
use serde::{Deserialize, Serialize};

use crate::CtmcError;

/// A CTMC generator in sparse form (off-diagonal rates only; the diagonal
/// is implied by the row sums). Stored in CSC order so that the incoming
/// transitions of each state are contiguous — the layout both the
/// column-gather step kernel of [`crate::propagator::SparsePropagator`]
/// and the stationary bordered operator of [`crate::steady`] read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseCtmc {
    /// Off-diagonal rates: entry `(i, j)` is the rate of `i → j`.
    csc: CscMatrix,
    /// Row sums of `csc` (exit rates), precomputed once.
    exit: Vec<f64>,
}

impl SparseCtmc {
    /// Builds a sparse chain from `(from, to, rate)` triplets.
    ///
    /// Duplicate `(from, to)` pairs accumulate into a single stored entry.
    /// Self-loops are rejected; rates must be finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::InvalidGenerator`] for an empty state space,
    /// out-of-range indices, self-loops, or invalid rates.
    ///
    /// # Example
    ///
    /// ```
    /// use mfcsl_ctmc::sparse::SparseCtmc;
    ///
    /// let c = SparseCtmc::from_triplets(2, &[(0, 1, 2.0), (1, 0, 1.0)])?;
    /// assert_eq!(c.exit_rate(0), 2.0);
    /// let pi = c.transient_distribution(&[1.0, 0.0], 10.0, 1e-12)?;
    /// assert!((pi[0] - 1.0 / 3.0).abs() < 1e-9);
    /// # Ok::<(), mfcsl_ctmc::CtmcError>(())
    /// ```
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Result<Self, CtmcError> {
        if n == 0 {
            return Err(CtmcError::InvalidGenerator(
                "chain must have at least one state".into(),
            ));
        }
        for &(from, to, rate) in triplets {
            if from >= n || to >= n {
                return Err(CtmcError::InvalidGenerator(format!(
                    "transition ({from}, {to}) out of range for {n} states"
                )));
            }
            if from == to {
                return Err(CtmcError::InvalidGenerator(format!(
                    "self-loop on state {from}"
                )));
            }
            if !rate.is_finite() || rate < 0.0 {
                return Err(CtmcError::InvalidGenerator(format!(
                    "rate {rate} at ({from}, {to}) must be finite and non-negative"
                )));
            }
        }
        let csc = CscMatrix::from_triplets(n, n, triplets)
            .map_err(|e| CtmcError::InvalidGenerator(e.to_string()))?;
        let mut exit = vec![0.0; n];
        for &(from, _, rate) in triplets {
            exit[from] += rate;
        }
        Ok(SparseCtmc { csc, exit })
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.exit.len()
    }

    /// Number of stored transitions (after accumulating duplicates).
    #[must_use]
    pub fn n_transitions(&self) -> usize {
        self.csc.nnz()
    }

    /// Exit rate of a state.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn exit_rate(&self, s: usize) -> f64 {
        self.exit[s]
    }

    /// The largest exit rate (uniformization rate lower bound).
    #[must_use]
    pub fn max_exit_rate(&self) -> f64 {
        self.exit.iter().fold(0.0_f64, |m, &v| m.max(v))
    }

    /// Exit rates of every state (row sums of the off-diagonal rates).
    #[must_use]
    pub fn exit_rates(&self) -> &[f64] {
        &self.exit
    }

    /// The off-diagonal rates in CSC order: column `j` holds the incoming
    /// transitions of state `j`, sorted by ascending source row — the
    /// order the gather kernels sum in.
    #[must_use]
    pub fn rates_csc(&self) -> &CscMatrix {
        &self.csc
    }

    /// Bytes held by the sparse representation (pattern + rates + exit).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.csc.memory_bytes() + self.exit.len() * std::mem::size_of::<f64>()
    }

    /// Transient distribution `π(t) = π(0)·e^{Qt}` by uniformization with
    /// sparse vector–matrix products.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::InvalidDistribution`] for a bad initial
    /// distribution and [`CtmcError::InvalidArgument`] for a negative time
    /// or bad truncation `eps`.
    pub fn transient_distribution(
        &self,
        pi0: &[f64],
        t: f64,
        eps: f64,
    ) -> Result<Vec<f64>, CtmcError> {
        self.transient_distribution_on(None, pi0, t, eps)
    }

    /// [`SparseCtmc::transient_distribution`] with the uniformization steps
    /// shared by the lanes of `pool` — bitwise identical to the serial path
    /// at any thread count (see
    /// [`crate::propagator::propagate_distribution_on`]).
    ///
    /// # Errors
    ///
    /// As [`SparseCtmc::transient_distribution`], plus
    /// [`CtmcError::InvalidGenerator`] for a chain with more than
    /// `u32::MAX` transitions.
    pub fn transient_distribution_on(
        &self,
        pool: Option<&mfcsl_pool::ThreadPool>,
        pi0: &[f64],
        t: f64,
        eps: f64,
    ) -> Result<Vec<f64>, CtmcError> {
        if pi0.len() != self.n_states() {
            return Err(CtmcError::InvalidDistribution(format!(
                "distribution has length {}, expected {}",
                pi0.len(),
                self.n_states()
            )));
        }
        mfcsl_math::simplex::check_distribution(pi0, mfcsl_math::simplex::DEFAULT_SUM_TOL)
            .map_err(|e| CtmcError::InvalidDistribution(e.to_string()))?;
        let prop = crate::propagator::SparsePropagator::from_csc(&self.csc, &self.exit)?;
        crate::propagator::propagate_distribution_on(pool, &prop, pi0, t, eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::transient_distribution;
    use crate::CtmcBuilder;
    use proptest::prelude::*;

    #[test]
    fn construction_and_accessors() {
        let c = SparseCtmc::from_triplets(3, &[(0, 1, 1.0), (0, 2, 0.5), (2, 0, 2.0)]).unwrap();
        assert_eq!(c.n_states(), 3);
        assert_eq!(c.n_transitions(), 3);
        assert_eq!(c.exit_rate(0), 1.5);
        assert_eq!(c.exit_rate(1), 0.0);
        assert_eq!(c.max_exit_rate(), 2.0);
    }

    #[test]
    fn duplicate_triplets_accumulate() {
        let c = SparseCtmc::from_triplets(2, &[(0, 1, 1.0), (0, 1, 2.0)]).unwrap();
        assert_eq!(c.exit_rate(0), 3.0);
        assert_eq!(c.n_transitions(), 1);
        let pi = c.transient_distribution(&[1.0, 0.0], 100.0, 1e-12).unwrap();
        assert!(pi[1] > 1.0 - 1e-9);
    }

    #[test]
    fn validation() {
        assert!(SparseCtmc::from_triplets(0, &[]).is_err());
        assert!(SparseCtmc::from_triplets(2, &[(0, 2, 1.0)]).is_err());
        assert!(SparseCtmc::from_triplets(2, &[(0, 0, 1.0)]).is_err());
        assert!(SparseCtmc::from_triplets(2, &[(0, 1, -1.0)]).is_err());
        assert!(SparseCtmc::from_triplets(2, &[(0, 1, f64::NAN)]).is_err());
        let c = SparseCtmc::from_triplets(2, &[(0, 1, 1.0)]).unwrap();
        assert!(c.transient_distribution(&[1.0], 1.0, 1e-12).is_err());
        assert!(c.transient_distribution(&[1.0, 0.0], -1.0, 1e-12).is_err());
    }

    #[test]
    fn frozen_chain_stays_put() {
        let c = SparseCtmc::from_triplets(2, &[(0, 1, 0.0)]).unwrap();
        let pi = c.transient_distribution(&[0.3, 0.7], 5.0, 1e-12).unwrap();
        assert_eq!(pi, vec![0.3, 0.7]);
    }

    #[test]
    fn csc_layout_lists_incoming_transitions() {
        let c = SparseCtmc::from_triplets(3, &[(0, 2, 1.0), (1, 2, 0.5), (2, 0, 2.0)]).unwrap();
        let (rows, rates) = c.rates_csc().col(2);
        assert_eq!(rows, &[0, 1]);
        assert_eq!(rates, &[1.0, 0.5]);
        assert!(c.memory_bytes() < 1024);
    }

    proptest! {
        /// Sparse and dense uniformization agree on random chains.
        #[test]
        fn prop_matches_dense(
            rates in proptest::collection::vec(0.0_f64..3.0, 12),
            t in 0.01_f64..4.0,
        ) {
            let names = ["a", "b", "c", "d"];
            let mut builder = CtmcBuilder::new();
            for name in names {
                builder = builder.state(name, [name]);
            }
            let mut triplets = Vec::new();
            let mut idx = 0;
            for i in 0..4usize {
                for j in 0..4usize {
                    if i != j {
                        let r = rates[idx];
                        idx += 1;
                        builder = builder.transition(names[i], names[j], r).unwrap();
                        triplets.push((i, j, r));
                    }
                }
            }
            let dense = builder.build().unwrap();
            let sparse = SparseCtmc::from_triplets(4, &triplets).unwrap();
            let pi0 = [0.4, 0.3, 0.2, 0.1];
            let pd = transient_distribution(&dense, &pi0, t, 1e-13).unwrap();
            let ps = sparse.transient_distribution(&pi0, t, 1e-13).unwrap();
            for (a, b) in pd.iter().zip(&ps) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
