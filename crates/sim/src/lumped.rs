//! The explicit overall CTMC for finite `N`.
//!
//! For `N` exchangeable objects with `K` local states, the exact overall
//! model is a CTMC on the count vectors `{c : Σ c_s = N}` — a state space
//! of size `C(N+K-1, K-1)`. This is the state-space explosion the
//! mean-field method exists to avoid (Sec. I of the paper): with `K = 3`,
//! `N = 1000` already gives ~500 000 states. This module builds that chain
//! explicitly (guarded by a size limit) so that small-`N` exact transients
//! can validate both the SSA and the mean-field approximation, and so that
//! the scalability bench can measure the explosion.

use mfcsl_core::{CoreError, LocalModel, Occupancy};
use mfcsl_ctmc::{Ctmc, Labeling};
use mfcsl_math::Matrix;

/// A lumped overall chain: the CTMC plus the count vector of each state.
#[derive(Debug, Clone)]
pub struct LumpedChain {
    ctmc: Ctmc,
    states: Vec<Vec<usize>>,
    population: usize,
}

impl LumpedChain {
    /// The underlying CTMC.
    #[must_use]
    pub fn ctmc(&self) -> &Ctmc {
        &self.ctmc
    }

    /// Count vectors, indexed like the CTMC's states.
    #[must_use]
    pub fn states(&self) -> &[Vec<usize>] {
        &self.states
    }

    /// Population size `N`.
    #[must_use]
    pub fn population(&self) -> usize {
        self.population
    }

    /// Number of lumped states `C(N+K-1, K-1)`.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// Index of a count vector.
    #[must_use]
    pub fn index_of(&self, counts: &[usize]) -> Option<usize> {
        self.states.iter().position(|c| c == counts)
    }

    /// The exact expected occupancy `E[c(t)/N]` starting from a fixed
    /// count vector, via uniformization on the lumped chain.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for an unknown start vector
    /// and propagates transient-analysis failures.
    pub fn expected_occupancy(
        &self,
        counts0: &[usize],
        t: f64,
        eps: f64,
    ) -> Result<Vec<f64>, CoreError> {
        self.expected_occupancy_on(None, counts0, t, eps)
    }

    /// [`LumpedChain::expected_occupancy`] with the Kolmogorov steps shared
    /// by the lanes of `pool` — bitwise identical to the serial path at any
    /// thread count.
    ///
    /// # Errors
    ///
    /// As [`LumpedChain::expected_occupancy`].
    pub fn expected_occupancy_on(
        &self,
        pool: Option<&mfcsl_pool::ThreadPool>,
        counts0: &[usize],
        t: f64,
        eps: f64,
    ) -> Result<Vec<f64>, CoreError> {
        let start = self.index_of(counts0).ok_or_else(|| {
            CoreError::InvalidArgument(format!("counts {counts0:?} are not a state"))
        })?;
        let mut pi0 = vec![0.0; self.n_states()];
        pi0[start] = 1.0;
        let pi = mfcsl_ctmc::transient::transient_distribution_on(pool, &self.ctmc, &pi0, t, eps)?;
        let k = counts0.len();
        let n = self.population as f64;
        let mut occ = vec![0.0; k];
        for (idx, prob) in pi.iter().enumerate() {
            for (s, &c) in self.states[idx].iter().enumerate() {
                occ[s] += prob * c as f64 / n;
            }
        }
        Ok(occ)
    }

    /// The exact distribution over count vectors at time `t`.
    ///
    /// # Errors
    ///
    /// As [`LumpedChain::expected_occupancy`].
    pub fn transient_distribution(
        &self,
        counts0: &[usize],
        t: f64,
        eps: f64,
    ) -> Result<Vec<f64>, CoreError> {
        let start = self.index_of(counts0).ok_or_else(|| {
            CoreError::InvalidArgument(format!("counts {counts0:?} are not a state"))
        })?;
        let mut pi0 = vec![0.0; self.n_states()];
        pi0[start] = 1.0;
        Ok(mfcsl_ctmc::transient::transient_distribution(
            &self.ctmc, &pi0, t, eps,
        )?)
    }
}

/// Enumerates all count vectors of length `k` summing to `n`, in
/// lexicographic order.
#[must_use]
pub fn enumerate_count_vectors(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = vec![0usize; k];
    fill(&mut out, &mut current, 0, n);
    out
}

fn fill(out: &mut Vec<Vec<usize>>, current: &mut Vec<usize>, pos: usize, remaining: usize) {
    if pos + 1 == current.len() {
        current[pos] = remaining;
        out.push(current.clone());
        return;
    }
    for v in 0..=remaining {
        current[pos] = v;
        fill(out, current, pos + 1, remaining - v);
    }
}

/// The number of lumped states, `C(n+k-1, k-1)`.
#[must_use]
pub fn n_lumped_states(n: usize, k: usize) -> u128 {
    if k == 0 {
        return 0;
    }
    binomial((n + k - 1) as u128, (k - 1) as u128)
}

fn binomial(n: u128, k: u128) -> u128 {
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) / (i + 1);
    }
    acc
}

/// A lumped overall chain in sparse (CSR) form — the same Markov chain as
/// [`LumpedChain`] but storing only the `≤ K(K-1)` transitions per state,
/// which keeps six-digit state spaces tractable.
#[derive(Debug, Clone)]
pub struct SparseLumpedChain {
    chain: mfcsl_ctmc::sparse::SparseCtmc,
    states: Vec<Vec<usize>>,
    population: usize,
}

impl SparseLumpedChain {
    /// The underlying sparse chain.
    #[must_use]
    pub fn chain(&self) -> &mfcsl_ctmc::sparse::SparseCtmc {
        &self.chain
    }

    /// Count vectors, indexed like the chain's states.
    #[must_use]
    pub fn states(&self) -> &[Vec<usize>] {
        &self.states
    }

    /// Population size `N`.
    #[must_use]
    pub fn population(&self) -> usize {
        self.population
    }

    /// Number of lumped states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// Index of a count vector (binary search over the lexicographic
    /// enumeration).
    #[must_use]
    pub fn index_of(&self, counts: &[usize]) -> Option<usize> {
        self.states
            .binary_search_by(|probe| probe.as_slice().cmp(counts))
            .ok()
    }

    /// Exact expected occupancy `E[c(t)/N]` from a fixed start vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for an unknown start vector
    /// and propagates transient-analysis failures.
    pub fn expected_occupancy(
        &self,
        counts0: &[usize],
        t: f64,
        eps: f64,
    ) -> Result<Vec<f64>, CoreError> {
        self.expected_occupancy_on(None, counts0, t, eps)
    }

    /// [`SparseLumpedChain::expected_occupancy`] with the Kolmogorov steps
    /// shared by the lanes of `pool` — bitwise identical to the serial
    /// path at any thread count. This is the large-state-space
    /// workload of the scalability bench.
    ///
    /// # Errors
    ///
    /// As [`SparseLumpedChain::expected_occupancy`].
    pub fn expected_occupancy_on(
        &self,
        pool: Option<&mfcsl_pool::ThreadPool>,
        counts0: &[usize],
        t: f64,
        eps: f64,
    ) -> Result<Vec<f64>, CoreError> {
        let start = self.index_of(counts0).ok_or_else(|| {
            CoreError::InvalidArgument(format!("counts {counts0:?} are not a state"))
        })?;
        let mut pi0 = vec![0.0; self.n_states()];
        pi0[start] = 1.0;
        let pi = self.chain.transient_distribution_on(pool, &pi0, t, eps)?;
        let k = counts0.len();
        let n = self.population as f64;
        let mut occ = vec![0.0; k];
        for (idx, prob) in pi.iter().enumerate() {
            if *prob == 0.0 {
                continue;
            }
            for (s, &c) in self.states[idx].iter().enumerate() {
                occ[s] += prob * c as f64 / n;
            }
        }
        Ok(occ)
    }
}

/// Builds the lumped overall chain in sparse form.
///
/// Same semantics as [`build`], different representation; use this for
/// `N` beyond a few dozen.
///
/// # Errors
///
/// As [`build`].
pub fn build_sparse(
    model: &LocalModel,
    n: usize,
    max_states: usize,
) -> Result<SparseLumpedChain, CoreError> {
    if n == 0 {
        return Err(CoreError::InvalidArgument(
            "population size must be positive".into(),
        ));
    }
    let k = model.n_states();
    let predicted = n_lumped_states(n, k);
    if predicted > max_states as u128 {
        return Err(CoreError::InvalidArgument(format!(
            "lumped chain would have {predicted} states, exceeding the limit {max_states}"
        )));
    }
    let states = enumerate_count_vectors(n, k);
    let index_of = |c: &[usize]| -> usize {
        states
            .binary_search_by(|probe| probe.as_slice().cmp(c))
            .expect("successor count vector is enumerated")
    };
    let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(states.len() * k);
    for (idx, c) in states.iter().enumerate() {
        let m = Occupancy::project(c.iter().map(|&x| x as f64 / n as f64).collect())?;
        let local_q = model.generator_at(&m)?;
        for s in 0..k {
            if c[s] == 0 {
                continue;
            }
            for j in 0..k {
                if j == s {
                    continue;
                }
                let rate = c[s] as f64 * local_q[(s, j)];
                if rate <= 0.0 {
                    continue;
                }
                let mut target = c.clone();
                target[s] -= 1;
                target[j] += 1;
                triplets.push((idx, index_of(&target), rate));
            }
        }
    }
    let chain = mfcsl_ctmc::sparse::SparseCtmc::from_triplets(states.len(), &triplets)?;
    Ok(SparseLumpedChain {
        chain,
        states,
        population: n,
    })
}

/// Builds the lumped overall CTMC for population `n`.
///
/// The transition `c → c - e_s + e_j` fires at rate `c_s · Q_{s,j}(c/N)`
/// (density-dependent convention: each of the `c_s` objects jumps at the
/// local rate evaluated at the current empirical occupancy).
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] if the state count would exceed
/// `max_states` (the guard against accidental explosion) or `n == 0`, and
/// propagates rate-evaluation failures.
pub fn build(model: &LocalModel, n: usize, max_states: usize) -> Result<LumpedChain, CoreError> {
    if n == 0 {
        return Err(CoreError::InvalidArgument(
            "population size must be positive".into(),
        ));
    }
    let k = model.n_states();
    let predicted = n_lumped_states(n, k);
    if predicted > max_states as u128 {
        return Err(CoreError::InvalidArgument(format!(
            "lumped chain would have {predicted} states, exceeding the limit {max_states}"
        )));
    }
    let states = enumerate_count_vectors(n, k);
    let n_states = states.len();
    // Fast index lookup: states are lexicographically sorted, use binary
    // search through a sorted clone of indices.
    let index_of = |c: &[usize]| -> usize {
        states
            .binary_search_by(|probe| probe.as_slice().cmp(c))
            .expect("successor count vector is enumerated")
    };
    let mut q = Matrix::zeros(n_states, n_states);
    for (idx, c) in states.iter().enumerate() {
        let m = Occupancy::project(c.iter().map(|&x| x as f64 / n as f64).collect())?;
        let local_q = model.generator_at(&m)?;
        for s in 0..k {
            if c[s] == 0 {
                continue;
            }
            for j in 0..k {
                if j == s {
                    continue;
                }
                let rate = c[s] as f64 * local_q[(s, j)];
                if rate <= 0.0 {
                    continue;
                }
                let mut target = c.clone();
                target[s] -= 1;
                target[j] += 1;
                q[(idx, index_of(&target))] += rate;
            }
        }
    }
    let names: Vec<String> = states
        .iter()
        .map(|c| {
            let parts: Vec<String> = c.iter().map(usize::to_string).collect();
            format!("c({})", parts.join(","))
        })
        .collect();
    let ctmc = Ctmc::from_parts(names, q, Labeling::new(n_states))?;
    Ok(LumpedChain {
        ctmc,
        states,
        population: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sis() -> LocalModel {
        LocalModel::builder()
            .state("s", ["healthy"])
            .state("i", ["infected"])
            .transition("s", "i", |m: &Occupancy| 2.0 * m[1])
            .unwrap()
            .constant_transition("i", "s", 1.0)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn enumeration_and_counting() {
        let states = enumerate_count_vectors(3, 2);
        assert_eq!(states.len(), 4);
        assert_eq!(states[0], vec![0, 3]);
        assert_eq!(states[3], vec![3, 0]);
        assert_eq!(n_lumped_states(3, 2), 4);
        assert_eq!(n_lumped_states(10, 3), 66);
        assert_eq!(n_lumped_states(1000, 3), 501_501);
        // Enumerated count always matches the formula.
        for (n, k) in [(1, 1), (4, 3), (6, 4)] {
            assert_eq!(
                enumerate_count_vectors(n, k).len() as u128,
                n_lumped_states(n, k)
            );
        }
    }

    #[test]
    fn lumped_chain_is_well_formed() {
        let model = sis();
        let lumped = build(&model, 4, 100).unwrap();
        assert_eq!(lumped.n_states(), 5);
        assert_eq!(lumped.population(), 4);
        // From (4 healthy, 0 infected) nothing happens.
        let frozen_idx = lumped.index_of(&[4, 0]).unwrap();
        assert!(lumped.ctmc().is_absorbing(frozen_idx));
        // From (3, 1): infection reaction rate = 3 * 2 * 1/4 = 1.5,
        // recovery rate = 1 * 1 = 1.
        let idx = lumped.index_of(&[3, 1]).unwrap();
        let to_infect = lumped.index_of(&[2, 2]).unwrap();
        let to_recover = lumped.index_of(&[4, 0]).unwrap();
        let q = lumped.ctmc().generator();
        assert!((q[(idx, to_infect)] - 1.5).abs() < 1e-12);
        assert!((q[(idx, to_recover)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn size_guard_trips() {
        let model = sis();
        assert!(build(&model, 1000, 100).is_err());
        assert!(build(&model, 0, 100).is_err());
    }

    #[test]
    fn exact_small_n_matches_ssa_average() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let model = sis();
        let lumped = build(&model, 10, 1000).unwrap();
        let exact = lumped.expected_occupancy(&[8, 2], 1.0, 1e-12).unwrap();
        // SSA average over many runs.
        let mut rng = StdRng::seed_from_u64(5);
        let runs = 6000;
        let mut acc = 0.0;
        for _ in 0..runs {
            let traj = crate::ssa::simulate(&model, vec![8, 2], 1.0, &mut rng).unwrap();
            acc += traj.occupancy_at(1.0)[1];
        }
        let est = acc / runs as f64;
        assert!(
            (est - exact[1]).abs() < 0.01,
            "ssa {est} vs lumped exact {}",
            exact[1]
        );
    }

    #[test]
    fn transient_distribution_is_a_distribution() {
        let model = sis();
        let lumped = build(&model, 5, 100).unwrap();
        let pi = lumped.transient_distribution(&[4, 1], 0.7, 1e-12).unwrap();
        assert_eq!(pi.len(), lumped.n_states());
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(pi.iter().all(|&p| p >= -1e-12));
        // Unknown start state.
        assert!(lumped.transient_distribution(&[9, 9], 0.7, 1e-12).is_err());
    }

    #[test]
    fn sparse_and_dense_lumped_agree() {
        let model = sis();
        let dense = build(&model, 12, 10_000).unwrap();
        let sparse = build_sparse(&model, 12, 10_000).unwrap();
        assert_eq!(dense.n_states(), sparse.n_states());
        assert_eq!(sparse.population(), 12);
        let c0 = vec![9, 3];
        for &t in &[0.3, 1.0, 4.0] {
            let ed = dense.expected_occupancy(&c0, t, 1e-12).unwrap();
            let es = sparse.expected_occupancy(&c0, t, 1e-12).unwrap();
            for (a, b) in ed.iter().zip(&es) {
                assert!((a - b).abs() < 1e-9, "t = {t}: {ed:?} vs {es:?}");
            }
        }
        assert!(sparse.index_of(&[12, 0]).is_some());
        assert!(sparse.index_of(&[13, 0]).is_none());
        assert!(sparse.expected_occupancy(&[13, 0], 1.0, 1e-12).is_err());
    }

    #[test]
    fn pooled_expected_occupancy_is_bitwise_identical() {
        let model = sis();
        // N = 500 on 2 states: 501 lumped states, above the blocking
        // threshold, so the pooled path really splits the steps.
        let sparse = build_sparse(&model, 500, 10_000).unwrap();
        let c0 = vec![400, 100];
        let serial = sparse.expected_occupancy(&c0, 1.0, 1e-12).unwrap();
        for threads in [1, 2, 8] {
            let pool = mfcsl_pool::ThreadPool::new(threads);
            let parallel = sparse
                .expected_occupancy_on(Some(&pool), &c0, 1.0, 1e-12)
                .unwrap();
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn sparse_handles_larger_populations() {
        let model = sis();
        // N = 400 on 2 states: 401 lumped states, trivial sparse, painful
        // dense. Bias to mean field should be tiny.
        let sparse = build_sparse(&model, 400, 10_000).unwrap();
        let e = sparse.expected_occupancy(&[320, 80], 1.0, 1e-10).unwrap();
        let m0 = Occupancy::new(vec![0.8, 0.2]).unwrap();
        let sol = mfcsl_core::meanfield::solve(&model, &m0, 1.0, &mfcsl_ode::OdeOptions::default())
            .unwrap();
        let mf = sol.occupancy_at(1.0);
        assert!((e[1] - mf[1]).abs() < 2e-3, "{} vs {}", e[1], mf[1]);
    }

    #[test]
    fn finite_n_converges_toward_mean_field() {
        // E[i(t)] for growing N approaches the mean-field value; the bias
        // should shrink with N (Theorem 1).
        let model = sis();
        let t = 1.0;
        let mean_field = {
            let m0 = Occupancy::new(vec![0.8, 0.2]).unwrap();
            let sol =
                mfcsl_core::meanfield::solve(&model, &m0, t, &mfcsl_ode::OdeOptions::default())
                    .unwrap();
            sol.occupancy_at(t)[1]
        };
        let bias = |n: usize| {
            let lumped = build(&model, n, 100_000).unwrap();
            let c0 = vec![n * 4 / 5, n / 5];
            let e = lumped.expected_occupancy(&c0, t, 1e-12).unwrap();
            (e[1] - mean_field).abs()
        };
        let b5 = bias(5);
        let b40 = bias(40);
        assert!(
            b40 < b5,
            "bias should shrink with N: N=5 gives {b5}, N=40 gives {b40}"
        );
        assert!(b40 < 0.02, "N=40 bias {b40}");
    }
}
