//! Monte-Carlo estimators with confidence intervals.

use mfcsl_core::CoreError;

/// A point estimate with a two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The point estimate.
    pub mean: f64,
    /// Lower confidence bound.
    pub lo: f64,
    /// Upper confidence bound.
    pub hi: f64,
    /// Number of samples behind the estimate.
    pub n: usize,
}

impl Estimate {
    /// Half-width of the interval.
    #[must_use]
    pub fn half_width(&self) -> f64 {
        0.5 * (self.hi - self.lo)
    }

    /// `true` if `value` lies inside the interval.
    #[must_use]
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lo && value <= self.hi
    }
}

/// Wilson score interval for a binomial proportion — well-behaved near 0
/// and 1, where the standard CSL probability thresholds live.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] for zero trials,
/// `successes > trials`, or a non-positive `z`.
///
/// # Example
///
/// ```
/// use mfcsl_sim::estimator::proportion_ci;
///
/// let est = proportion_ci(720, 1000, 1.96)?;
/// assert!((est.mean - 0.72).abs() < 1e-12);
/// assert!(est.contains(0.7));
/// # Ok::<(), mfcsl_core::CoreError>(())
/// ```
pub fn proportion_ci(successes: usize, trials: usize, z: f64) -> Result<Estimate, CoreError> {
    if trials == 0 {
        return Err(CoreError::InvalidArgument(
            "proportion estimate needs at least one trial".into(),
        ));
    }
    if successes > trials {
        return Err(CoreError::InvalidArgument(format!(
            "{successes} successes out of {trials} trials"
        )));
    }
    if !(z > 0.0) || !z.is_finite() {
        return Err(CoreError::InvalidArgument(format!(
            "z-score must be positive and finite, got {z}"
        )));
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z / denom * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    Ok(Estimate {
        mean: p,
        lo: (center - half).max(0.0),
        hi: (center + half).min(1.0),
        n: trials,
    })
}

/// Wald (normal-approximation) interval for a binomial proportion — kept
/// for comparison against [`proportion_ci`]. The Wald interval collapses
/// to zero width at `p̂ ∈ {0, 1}` (common for near-sure until formulas),
/// which is exactly why the Wilson score interval is the default.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] for zero trials,
/// `successes > trials`, or a non-positive `z`.
pub fn proportion_ci_normal(
    successes: usize,
    trials: usize,
    z: f64,
) -> Result<Estimate, CoreError> {
    if trials == 0 {
        return Err(CoreError::InvalidArgument(
            "proportion estimate needs at least one trial".into(),
        ));
    }
    if successes > trials {
        return Err(CoreError::InvalidArgument(format!(
            "{successes} successes out of {trials} trials"
        )));
    }
    if !(z > 0.0) || !z.is_finite() {
        return Err(CoreError::InvalidArgument(format!(
            "z-score must be positive and finite, got {z}"
        )));
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let half = z * (p * (1.0 - p) / n).sqrt();
    Ok(Estimate {
        mean: p,
        lo: (p - half).max(0.0),
        hi: (p + half).min(1.0),
        n: trials,
    })
}

/// Normal-approximation interval for the mean of real-valued samples.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] for fewer than two samples, a
/// non-finite sample, or a non-positive `z`.
pub fn mean_ci(samples: &[f64], z: f64) -> Result<Estimate, CoreError> {
    if samples.len() < 2 {
        return Err(CoreError::InvalidArgument(
            "mean estimate needs at least two samples".into(),
        ));
    }
    if samples.iter().any(|v| !v.is_finite()) {
        return Err(CoreError::InvalidArgument("samples must be finite".into()));
    }
    if !(z > 0.0) || !z.is_finite() {
        return Err(CoreError::InvalidArgument(format!(
            "z-score must be positive and finite, got {z}"
        )));
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
    let half = z * (var / n).sqrt();
    Ok(Estimate {
        mean,
        lo: mean - half,
        hi: mean + half,
        n: samples.len(),
    })
}

/// Derives the seed for replication `index` from `base_seed` via one
/// xorshift64 round over a golden-ratio-strided mix. Replication `i`
/// always receives the same seed no matter how the work is sharded, which
/// is what makes [`run_replications`] bitwise identical at any thread
/// count — the same discipline the thread pool uses for solver kernels.
///
/// The mix is injective in `index` for a fixed base, and xorshift64 is a
/// bijection, so seeds never collide across replications. xorshift64
/// fixes 0, so a vanished mix is nudged onto an arbitrary odd constant.
#[must_use]
pub fn replication_seed(base_seed: u64, index: u64) -> u64 {
    let mut x = base_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    if x == 0 {
        x = 0x4D59_5DF4_D0F3_3173;
    }
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Runs `n` independent replications of `f` across `threads` OS threads,
/// feeding each replication the seed [`replication_seed`]`(base_seed, i)`
/// — a pure function of the replication index, so results are independent
/// of the thread count.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_replications<T, F>(n: usize, threads: usize, base_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let threads = threads.max(1);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (worker, slice) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (offset, slot) in slice.iter_mut().enumerate() {
                    let index = worker * chunk + offset;
                    *slot = Some(f(replication_seed(base_seed, index as u64)));
                }
            });
        }
    });
    out.into_iter()
        .map(|o| o.expect("worker filled slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wilson_interval_basics() {
        let e = proportion_ci(50, 100, 1.96).unwrap();
        assert!((e.mean - 0.5).abs() < 1e-12);
        assert!(e.contains(0.5));
        assert!(e.lo > 0.39 && e.hi < 0.61);
        assert_eq!(e.n, 100);
        // Extreme proportions stay in [0, 1].
        let e = proportion_ci(0, 10, 1.96).unwrap();
        assert_eq!(e.lo, 0.0);
        assert!(e.hi > 0.0);
        let e = proportion_ci(10, 10, 1.96).unwrap();
        assert_eq!(e.hi, 1.0);
        assert!(e.lo < 1.0);
    }

    #[test]
    fn wilson_validation() {
        assert!(proportion_ci(1, 0, 1.96).is_err());
        assert!(proportion_ci(5, 3, 1.96).is_err());
        assert!(proportion_ci(1, 2, 0.0).is_err());
    }

    #[test]
    fn mean_interval() {
        let samples = [1.0, 2.0, 3.0, 4.0, 5.0];
        let e = mean_ci(&samples, 1.96).unwrap();
        assert!((e.mean - 3.0).abs() < 1e-12);
        assert!(e.contains(3.0));
        assert!(e.half_width() > 0.0);
        assert!(mean_ci(&[1.0], 1.96).is_err());
        assert!(mean_ci(&[1.0, f64::NAN], 1.96).is_err());
        assert!(mean_ci(&samples, -1.0).is_err());
    }

    #[test]
    fn wald_interval_degenerates_at_extremes() {
        // At p̂ ∈ {0, 1} the Wald interval collapses to zero width while
        // Wilson keeps a nonzero margin — the reason Wilson is the default.
        for (s, t) in [(0, 20), (20, 20)] {
            let wald = proportion_ci_normal(s, t, 1.96).unwrap();
            let wilson = proportion_ci(s, t, 1.96).unwrap();
            assert_eq!(wald.half_width(), 0.0, "wald at {s}/{t}");
            assert!(wilson.half_width() > 0.0, "wilson at {s}/{t}");
        }
        // Away from the extremes and at large n the two intervals agree.
        let wald = proportion_ci_normal(500, 1000, 1.96).unwrap();
        let wilson = proportion_ci(500, 1000, 1.96).unwrap();
        assert!((wald.lo - wilson.lo).abs() < 2e-3);
        assert!((wald.hi - wilson.hi).abs() < 2e-3);
        assert_eq!(wald.mean, wilson.mean);
        // Same validation as the Wilson path.
        assert!(proportion_ci_normal(1, 0, 1.96).is_err());
        assert!(proportion_ci_normal(5, 3, 1.96).is_err());
        assert!(proportion_ci_normal(1, 2, 0.0).is_err());
        assert!(proportion_ci_normal(1, 2, f64::NAN).is_err());
    }

    #[test]
    fn replication_seeds_are_distinct_and_nonzero() {
        let seeds: Vec<u64> = (0..1000).map(|i| replication_seed(42, i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 1000);
        assert!(seeds.iter().all(|&s| s != 0));
        // The zero fixed point of xorshift64 is guarded: base 0, index 0
        // mixes to 0 and must still produce a usable seed.
        assert_ne!(replication_seed(0, 0), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Sharding across 1, 2, or 8 threads never changes which seed a
        /// replication receives, so results are bitwise identical.
        #[test]
        fn prop_runner_thread_count_invariant(n in 1usize..48, base in 0u64..u64::MAX) {
            let one = run_replications(n, 1, base, |seed| seed);
            let two = run_replications(n, 2, base, |seed| seed);
            let eight = run_replications(n, 8, base, |seed| seed);
            prop_assert_eq!(&one, &two);
            prop_assert_eq!(&one, &eight);
            for (i, s) in one.iter().enumerate() {
                prop_assert_eq!(*s, replication_seed(base, i as u64));
            }
        }
    }

    #[test]
    fn replication_runner_is_deterministic_across_thread_counts() {
        let single = run_replications(17, 1, 42, |seed| seed % 1000);
        let multi = run_replications(17, 4, 42, |seed| seed % 1000);
        assert_eq!(single, multi);
        assert_eq!(single.len(), 17);
        // Seeds are distinct.
        let mut sorted = single.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 17);
    }

    #[test]
    fn replication_runner_parallel_monte_carlo() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Estimate P(U < 0.3) with 20k samples across 4 threads.
        let hits = run_replications(20_000, 4, 7, |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            u8::from(rng.gen_range(0.0..1.0_f64) < 0.3)
        });
        let successes: usize = hits.iter().map(|&h| h as usize).sum();
        let e = proportion_ci(successes, hits.len(), 2.58).unwrap();
        assert!(e.contains(0.3), "{e:?}");
    }
}
