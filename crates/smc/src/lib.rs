//! Statistical model checking of MF-CSL formulas at finite `N`.
//!
//! The mean-field verdict is exact only in the `N → ∞` limit (Theorem 1 of
//! the paper); this crate checks the same MF-CSL formulas on the *finite*
//! population by Monte-Carlo simulation and reports verdicts that carry
//! confidence intervals:
//!
//! * `E⋈p(Φ)` — the fraction of objects satisfying `Φ` in the discretized
//!   initial counts (deterministic at finite `N`, so the interval is a
//!   point);
//! * `ES⋈p(Φ)` — the satisfying fraction of the occupancy process at a
//!   long horizon, averaged over replications (Student-style normal
//!   interval via [`mfcsl_sim::estimator::mean_ci`]);
//! * `EP⋈p(φ)` — the probability that a *tagged object* (the random
//!   object of Def. 4, realized by [`mfcsl_sim::ssa::simulate_tagged`])
//!   takes a `φ`-path, estimated as a Wilson-score proportion.
//!
//! An [`SmcSession`] memoizes sampled path batches per initial occupancy —
//! the statistical analogue of the mean-field `CheckSession` — and
//! supports two stopping rules: fixed-sample, and Chow–Robbins-style
//! sequential stopping that grows the batch until every operator's
//! interval half-width drops below a target. Replication `i` always runs
//! under [`mfcsl_sim::estimator::replication_seed`]`(seed, i)`, so results
//! are bitwise identical at any thread count and any batch growth
//! schedule.

// `!(x > 0.0)`-style guards are used deliberately throughout: unlike
// `x <= 0.0`, they classify NaN as invalid input instead of letting it
// through, which is exactly the intent of the validation sites.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mfcsl_core::mfcsl::MfFormula;
use mfcsl_core::{CoreError, LocalModel, Occupancy};
use mfcsl_csl::{Comparison, CslError, PathFormula, StateFormula};
pub use mfcsl_sim::estimator::Estimate;
use mfcsl_sim::estimator::{mean_ci, proportion_ci, replication_seed};
use mfcsl_sim::ssa::TaggedPath;
use mfcsl_sim::{lumped, paths, ssa, CountTrajectory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a session decides it has sampled enough replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stopping {
    /// Run exactly [`SmcOptions::replications`] replications.
    Fixed,
    /// Chow–Robbins-style sequential stopping: start at
    /// [`SmcOptions::replications`], then grow the batch by `step` until
    /// every operator interval's half-width is at most
    /// `target_half_width`, or `max_replications` is reached.
    Sequential {
        /// Stop once every operator CI half-width is at most this.
        target_half_width: f64,
        /// How many replications each growth round adds.
        step: usize,
        /// Hard cap on the total number of replications.
        max_replications: usize,
    },
}

/// Configuration of a statistical checking session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmcOptions {
    /// Population size `N` of the simulated system.
    pub population: usize,
    /// Number of replications (initial batch size under
    /// [`Stopping::Sequential`]).
    pub replications: usize,
    /// z-score of the two-sided confidence intervals (1.96 ≈ 95%).
    pub z: f64,
    /// Base seed; replication `i` uses `replication_seed(seed, i)`.
    pub seed: u64,
    /// OS threads used to generate replications.
    pub threads: usize,
    /// Horizon at which `ES` reads the occupancy process as "steady".
    pub steady_horizon: f64,
    /// Stopping rule.
    pub stopping: Stopping,
}

impl SmcOptions {
    /// Defaults for population `N`: 200 replications, 95% intervals,
    /// seed 0, single-threaded, steady horizon 50, fixed-sample stopping.
    #[must_use]
    pub fn new(population: usize) -> Self {
        SmcOptions {
            population,
            replications: 200,
            z: 1.96,
            seed: 0,
            threads: 1,
            steady_horizon: 50.0,
            stopping: Stopping::Fixed,
        }
    }
}

/// One estimated `E`/`ES`/`EP` operator inside a checked formula.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorEstimate {
    /// The operator rendered in MF-CSL syntax, e.g. `EP{<0.3}[ … ]`.
    pub operator: String,
    /// The comparison of the bound.
    pub cmp: Comparison,
    /// The probability/fraction bound `p`.
    pub bound: f64,
    /// The Monte-Carlo estimate with its confidence interval.
    pub estimate: Estimate,
    /// `estimate.mean ⋈ bound`.
    pub holds: bool,
}

/// A statistical verdict: the truth value plus every operator estimate
/// that went into it.
#[derive(Debug, Clone, PartialEq)]
pub struct SmcVerdict {
    /// Truth value of the formula at the estimates' means.
    pub holds: bool,
    /// `true` if any operator's confidence interval contains its bound —
    /// the statistical analogue of the mean-field "marginal" flag.
    pub marginal: bool,
    /// Population size `N` the verdict was sampled at.
    pub population: usize,
    /// Replications behind the verdict.
    pub replications: usize,
    /// Estimates for each `E`/`ES`/`EP` operator, in syntax order.
    pub operators: Vec<OperatorEstimate>,
}

/// Counters of a session's sampling work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmcStats {
    /// Total SSA replications simulated (including batch extensions).
    pub replications_run: u64,
    /// Checks served entirely from a memoized batch.
    pub batch_hits: u64,
    /// Checks that had to simulate (cold batch, longer horizon, or more
    /// replications).
    pub batch_misses: u64,
}

/// One sampled replication: the count trajectory plus the tagged object's
/// path.
struct Replication {
    traj: CountTrajectory,
    sojourns: Vec<(usize, f64, f64)>,
}

/// A memoized batch of replications for one initial occupancy.
struct Batch {
    t_end: f64,
    runs: Vec<Arc<Replication>>,
}

/// A statistical checking session over one model: memoizes sampled path
/// batches keyed by the initial occupancy (the `(model, params, N, seed)`
/// part of the key is fixed per session, mirroring the daemon's session
/// store).
pub struct SmcSession<'m> {
    model: &'m LocalModel,
    options: SmcOptions,
    batches: Mutex<HashMap<Vec<u64>, Batch>>,
    stats: Mutex<SmcStats>,
}

impl<'m> SmcSession<'m> {
    /// Creates a session.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for a zero population,
    /// zero replications, a non-positive `z` or `steady_horizon`, or a
    /// degenerate sequential stopping rule.
    pub fn new(model: &'m LocalModel, options: SmcOptions) -> Result<Self, CoreError> {
        if options.population == 0 {
            return Err(CoreError::InvalidArgument(
                "population size must be positive".into(),
            ));
        }
        if options.replications < 2 {
            return Err(CoreError::InvalidArgument(
                "statistical checking needs at least two replications".into(),
            ));
        }
        if !(options.z > 0.0) || !options.z.is_finite() {
            return Err(CoreError::InvalidArgument(format!(
                "z-score must be positive and finite, got {}",
                options.z
            )));
        }
        if !(options.steady_horizon > 0.0) || !options.steady_horizon.is_finite() {
            return Err(CoreError::InvalidArgument(format!(
                "steady horizon must be positive and finite, got {}",
                options.steady_horizon
            )));
        }
        if let Stopping::Sequential {
            target_half_width,
            step,
            max_replications,
        } = options.stopping
        {
            if !(target_half_width > 0.0) || !target_half_width.is_finite() {
                return Err(CoreError::InvalidArgument(format!(
                    "target half-width must be positive and finite, got {target_half_width}"
                )));
            }
            if step == 0 || max_replications < options.replications {
                return Err(CoreError::InvalidArgument(
                    "sequential stopping needs a positive step and \
                     max_replications >= replications"
                        .into(),
                ));
            }
        }
        Ok(SmcSession {
            model,
            options,
            batches: Mutex::new(HashMap::new()),
            stats: Mutex::new(SmcStats::default()),
        })
    }

    /// The session's configuration.
    #[must_use]
    pub fn options(&self) -> &SmcOptions {
        &self.options
    }

    /// The model under check.
    #[must_use]
    pub fn model(&self) -> &'m LocalModel {
        self.model
    }

    /// Sampling counters so far.
    ///
    /// # Panics
    ///
    /// Panics if a previous caller panicked while holding the internal
    /// lock.
    #[must_use]
    pub fn stats(&self) -> SmcStats {
        *self.stats.lock().expect("smc stats lock poisoned")
    }

    /// Checks one formula. See [`SmcSession::check_all`].
    ///
    /// # Errors
    ///
    /// As for [`SmcSession::check_all`].
    pub fn check(&self, psi: &MfFormula, m0: &Occupancy) -> Result<SmcVerdict, CoreError> {
        Ok(self
            .check_all(std::slice::from_ref(psi), m0)?
            .pop()
            .expect("one verdict per formula"))
    }

    /// Checks a batch of formulas against one initial occupancy, sharing
    /// a single batch of sampled paths across the whole formula set.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Csl`] with [`CslError::Unsupported`] for
    /// formulas outside the statistical fragment (nested `S`/`P`
    /// operators), [`CslError::UnknownAtomicProposition`] for unknown
    /// labels, and propagates simulation failures.
    pub fn check_all(
        &self,
        psis: &[MfFormula],
        m0: &Occupancy,
    ) -> Result<Vec<SmcVerdict>, CoreError> {
        if m0.len() != self.model.n_states() {
            return Err(CoreError::InvalidArgument(format!(
                "occupancy has {} entries but the model has {} states",
                m0.len(),
                self.model.n_states()
            )));
        }
        // Validate every formula up front so unsupported fragments fail
        // before any sampling happens.
        for psi in psis {
            validate(self.model, psi)?;
        }
        let t_end = psis
            .iter()
            .map(|psi| self.horizon_of(psi))
            .fold(0.0_f64, f64::max)
            .max(1e-6);
        let mut n = self.options.replications;
        loop {
            let runs = self.ensure_batch(m0, t_end, n)?;
            let verdicts = psis
                .iter()
                .map(|psi| self.evaluate(psi, m0, &runs))
                .collect::<Result<Vec<_>, _>>()?;
            match self.options.stopping {
                Stopping::Fixed => return Ok(verdicts),
                Stopping::Sequential {
                    target_half_width,
                    step,
                    max_replications,
                } => {
                    let widest = verdicts
                        .iter()
                        .flat_map(|v| &v.operators)
                        .map(|o| o.estimate.half_width())
                        .fold(0.0_f64, f64::max);
                    if widest <= target_half_width || n >= max_replications {
                        return Ok(verdicts);
                    }
                    n = (n + step).min(max_replications);
                }
            }
        }
    }

    /// The simulation horizon a formula needs: its CSL look-ahead, plus
    /// the steady horizon if it contains `ES`.
    fn horizon_of(&self, psi: &MfFormula) -> f64 {
        let mut h = psi.time_horizon();
        if contains_es(psi) {
            h = h.max(self.options.steady_horizon);
        }
        h
    }

    /// Returns at least `n` replications simulated to at least `t_end`
    /// for `m0`, reusing the memoized batch when possible. Extending a
    /// batch keeps indices 0..old intact (same per-index seeds), so the
    /// result is identical to sampling `n` replications from scratch.
    fn ensure_batch(
        &self,
        m0: &Occupancy,
        t_end: f64,
        n: usize,
    ) -> Result<Vec<Arc<Replication>>, CoreError> {
        let key: Vec<u64> = m0.as_slice().iter().map(|v| v.to_bits()).collect();
        let mut batches = self.batches.lock().expect("smc batch lock poisoned");
        if let Some(batch) = batches.get(&key) {
            if batch.t_end >= t_end && batch.runs.len() >= n {
                self.stats
                    .lock()
                    .expect("smc stats lock poisoned")
                    .batch_hits += 1;
                return Ok(batch.runs[..n].to_vec());
            }
        }
        self.stats
            .lock()
            .expect("smc stats lock poisoned")
            .batch_misses += 1;
        let entry = batches.entry(key).or_insert(Batch {
            t_end,
            runs: Vec::new(),
        });
        if entry.t_end < t_end {
            // A longer horizon invalidates the sampled paths: regenerate
            // from scratch (same seeds, longer runs).
            entry.runs.clear();
            entry.t_end = t_end;
        }
        let have = entry.runs.len();
        if have < n {
            let fresh = self.generate(m0, have, n - have, entry.t_end)?;
            entry.runs.extend(fresh);
            self.stats
                .lock()
                .expect("smc stats lock poisoned")
                .replications_run += (n - have) as u64;
        }
        Ok(entry.runs[..n].to_vec())
    }

    /// Simulates replications `start .. start + count` in parallel. Each
    /// replication is a pure function of its global index, so sharding is
    /// invisible in the results.
    fn generate(
        &self,
        m0: &Occupancy,
        start: usize,
        count: usize,
        t_end: f64,
    ) -> Result<Vec<Arc<Replication>>, CoreError> {
        let n = self.options.population;
        let counts0 = ssa::counts_from_occupancy(m0, n)?;
        let threads = self.options.threads.max(1);
        let mut out: Vec<Option<Result<Arc<Replication>, CoreError>>> =
            (0..count).map(|_| None).collect();
        let chunk = count.div_ceil(threads).max(1);
        let model = self.model;
        let seed = self.options.seed;
        std::thread::scope(|scope| {
            for (worker, slice) in out.chunks_mut(chunk).enumerate() {
                let counts0 = &counts0;
                scope.spawn(move || {
                    for (offset, slot) in slice.iter_mut().enumerate() {
                        let index = (start + worker * chunk + offset) as u64;
                        *slot = Some(run_one(
                            model,
                            counts0,
                            n,
                            t_end,
                            replication_seed(seed, index),
                        ));
                    }
                });
            }
        });
        out.into_iter()
            .map(|o| o.expect("worker filled slot"))
            .collect()
    }

    /// Evaluates one formula against a batch of runs.
    fn evaluate(
        &self,
        psi: &MfFormula,
        m0: &Occupancy,
        runs: &[Arc<Replication>],
    ) -> Result<SmcVerdict, CoreError> {
        let mut operators = Vec::new();
        let holds = self.eval_node(psi, m0, runs, &mut operators)?;
        let marginal = operators
            .iter()
            .any(|o: &OperatorEstimate| o.estimate.contains(o.bound));
        Ok(SmcVerdict {
            holds,
            marginal,
            population: self.options.population,
            replications: runs.len(),
            operators,
        })
    }

    fn eval_node(
        &self,
        psi: &MfFormula,
        m0: &Occupancy,
        runs: &[Arc<Replication>],
        out: &mut Vec<OperatorEstimate>,
    ) -> Result<bool, CoreError> {
        match psi {
            MfFormula::True => Ok(true),
            MfFormula::Not(inner) => Ok(!self.eval_node(inner, m0, runs, out)?),
            MfFormula::And(a, b) => {
                let ha = self.eval_node(a, m0, runs, out)?;
                let hb = self.eval_node(b, m0, runs, out)?;
                Ok(ha && hb)
            }
            MfFormula::Or(a, b) => {
                let ha = self.eval_node(a, m0, runs, out)?;
                let hb = self.eval_node(b, m0, runs, out)?;
                Ok(ha || hb)
            }
            MfFormula::Expect { cmp, p, inner } => {
                // At finite N the initial fraction is determined by the
                // discretized counts — a point estimate.
                let sat = sat_states(self.model, inner)?;
                let counts = ssa::counts_from_occupancy(m0, self.options.population)?;
                let hits: usize = sat
                    .iter()
                    .zip(&counts)
                    .filter(|(s, _)| **s)
                    .map(|(_, c)| *c)
                    .sum();
                let mean = hits as f64 / self.options.population as f64;
                let est = Estimate {
                    mean,
                    lo: mean,
                    hi: mean,
                    n: runs.len(),
                };
                Ok(push_op(out, psi, *cmp, *p, est))
            }
            MfFormula::ExpectSteady { cmp, p, inner } => {
                let sat = sat_states(self.model, inner)?;
                let samples: Vec<f64> = runs
                    .iter()
                    .map(|r| {
                        r.traj
                            .occupancy_at(self.options.steady_horizon)
                            .mass_of(&sat)
                    })
                    .collect();
                let est = mean_ci(&samples, self.options.z)?;
                Ok(push_op(out, psi, *cmp, *p, est))
            }
            MfFormula::ExpectPath { cmp, p, path } => {
                let mut successes = 0usize;
                match path {
                    PathFormula::Next { interval, inner } => {
                        let sat = sat_states(self.model, inner)?;
                        for r in runs {
                            if paths::next_holds(&r.sojourns, &sat, interval.lo(), interval.hi())? {
                                successes += 1;
                            }
                        }
                    }
                    PathFormula::Until { interval, lhs, rhs } => {
                        let sat1 = sat_states(self.model, lhs)?;
                        let sat2 = sat_states(self.model, rhs)?;
                        for r in runs {
                            if paths::until_holds(
                                &r.sojourns,
                                &sat1,
                                &sat2,
                                interval.lo(),
                                interval.hi(),
                            )? {
                                successes += 1;
                            }
                        }
                    }
                }
                let est = proportion_ci(successes, runs.len(), self.options.z)?;
                Ok(push_op(out, psi, *cmp, *p, est))
            }
        }
    }
}

/// Simulates one replication: discretize the initial occupancy, tag a
/// uniformly random object, and run the SSA to `t_end`.
fn run_one(
    model: &LocalModel,
    counts0: &[usize],
    n: usize,
    t_end: f64,
    seed: u64,
) -> Result<Arc<Replication>, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Pick the tagged object uniformly among the N objects, then map its
    // index to a local state through the cumulative counts.
    let target = rng.gen_range(0..n);
    let mut acc = 0usize;
    let mut tagged_state = counts0.len() - 1;
    for (s, &c) in counts0.iter().enumerate() {
        acc += c;
        if target < acc {
            tagged_state = s;
            break;
        }
    }
    let (traj, tagged): (CountTrajectory, TaggedPath) =
        ssa::simulate_tagged(model, counts0.to_vec(), tagged_state, t_end, &mut rng)?;
    let sojourns: Vec<(usize, f64, f64)> = tagged.sojourns().collect();
    Ok(Arc::new(Replication { traj, sojourns }))
}

fn push_op(
    out: &mut Vec<OperatorEstimate>,
    psi: &MfFormula,
    cmp: Comparison,
    bound: f64,
    estimate: Estimate,
) -> bool {
    let holds = cmp.holds(estimate.mean, bound);
    out.push(OperatorEstimate {
        operator: psi.to_string(),
        cmp,
        bound,
        estimate,
        holds,
    });
    holds
}

/// `true` if the formula contains an `ES` operator anywhere.
fn contains_es(psi: &MfFormula) -> bool {
    match psi {
        MfFormula::True | MfFormula::Expect { .. } | MfFormula::ExpectPath { .. } => false,
        MfFormula::ExpectSteady { .. } => true,
        MfFormula::Not(inner) => contains_es(inner),
        MfFormula::And(a, b) | MfFormula::Or(a, b) => contains_es(a) || contains_es(b),
    }
}

/// Validates a formula against the statistical fragment without sampling.
fn validate(model: &LocalModel, psi: &MfFormula) -> Result<(), CoreError> {
    match psi {
        MfFormula::True => Ok(()),
        MfFormula::Not(inner) => validate(model, inner),
        MfFormula::And(a, b) | MfFormula::Or(a, b) => {
            validate(model, a)?;
            validate(model, b)
        }
        MfFormula::Expect { inner, .. } | MfFormula::ExpectSteady { inner, .. } => {
            sat_states(model, inner).map(|_| ())
        }
        MfFormula::ExpectPath { path, .. } => match path {
            PathFormula::Next { inner, .. } => sat_states(model, inner).map(|_| ()),
            PathFormula::Until { lhs, rhs, .. } => {
                sat_states(model, lhs)?;
                sat_states(model, rhs).map(|_| ())
            }
        },
    }
}

/// The satisfaction mask of a label-determined CSL state formula — the
/// fragment the statistical lane supports (`tt`, atomic propositions, and
/// boolean combinations; nested `S`/`P` would need per-time-point
/// sub-sampling).
///
/// # Errors
///
/// Returns [`CslError::UnknownAtomicProposition`] for a label the model
/// never uses and [`CslError::Unsupported`] for nested `S`/`P` operators
/// (both wrapped in [`CoreError::Csl`]).
pub fn sat_states(model: &LocalModel, phi: &StateFormula) -> Result<Vec<bool>, CoreError> {
    let k = model.n_states();
    match phi {
        StateFormula::True => Ok(vec![true; k]),
        StateFormula::Ap(name) => {
            let lab = model.labeling();
            if !lab.alphabet().contains(name) {
                return Err(CslError::UnknownAtomicProposition(name.clone()).into());
            }
            Ok((0..k).map(|i| lab.has(i, name)).collect())
        }
        StateFormula::Not(inner) => {
            let mut sat = sat_states(model, inner)?;
            for v in &mut sat {
                *v = !*v;
            }
            Ok(sat)
        }
        StateFormula::And(a, b) => {
            let sa = sat_states(model, a)?;
            let sb = sat_states(model, b)?;
            Ok(sa.iter().zip(&sb).map(|(x, y)| *x && *y).collect())
        }
        StateFormula::Or(a, b) => {
            let sa = sat_states(model, a)?;
            let sb = sat_states(model, b)?;
            Ok(sa.iter().zip(&sb).map(|(x, y)| *x || *y).collect())
        }
        StateFormula::Steady { .. } | StateFormula::Prob { .. } => Err(CslError::Unsupported(
            "statistical checking evaluates label-determined state formulas only; \
             nested S/P operators are not supported"
                .into(),
        )
        .into()),
    }
}

/// The exact expected fraction of objects satisfying `phi` at time `t` in
/// the finite-`N` system, via the lumped overall CTMC — the ground truth
/// the statistical estimates are validated against at small `N`.
///
/// # Errors
///
/// Propagates formula-fragment errors from [`sat_states`] and state-space
/// construction failures from [`lumped::build_sparse`] (the lumped chain
/// has `C(N+K-1, K-1)` states; `max_states` caps the build).
pub fn exact_expected_fraction(
    model: &LocalModel,
    n: usize,
    m0: &Occupancy,
    phi: &StateFormula,
    t: f64,
    max_states: usize,
) -> Result<f64, CoreError> {
    let sat = sat_states(model, phi)?;
    let counts0 = ssa::counts_from_occupancy(m0, n)?;
    let chain = lumped::build_sparse(model, n, max_states)?;
    let occ = chain.expected_occupancy(&counts0, t, 1e-10)?;
    Ok(occ
        .iter()
        .zip(&sat)
        .filter(|(_, s)| **s)
        .map(|(v, _)| *v)
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfcsl_csl::TimeInterval;

    fn sis() -> LocalModel {
        LocalModel::builder()
            .state("susceptible", ["healthy"])
            .state("infected", ["infected"])
            .transition("susceptible", "infected", |m: &Occupancy| 2.0 * m[1])
            .unwrap()
            .constant_transition("infected", "susceptible", 1.0)
            .unwrap()
            .build()
            .unwrap()
    }

    fn m0() -> Occupancy {
        Occupancy::new(vec![0.9, 0.1]).unwrap()
    }

    fn ep_until(cmp: Comparison, p: f64, t: f64) -> MfFormula {
        MfFormula::expect_path(
            cmp,
            p,
            PathFormula::Until {
                interval: TimeInterval::new(0.0, t).unwrap(),
                lhs: StateFormula::Ap("healthy".into()),
                rhs: StateFormula::Ap("infected".into()),
            },
        )
        .unwrap()
    }

    #[test]
    fn options_are_validated() {
        let model = sis();
        let mut o = SmcOptions::new(0);
        assert!(SmcSession::new(&model, o).is_err());
        o = SmcOptions::new(100);
        o.replications = 1;
        assert!(SmcSession::new(&model, o).is_err());
        o = SmcOptions::new(100);
        o.z = f64::NAN;
        assert!(SmcSession::new(&model, o).is_err());
        o = SmcOptions::new(100);
        o.stopping = Stopping::Sequential {
            target_half_width: 0.0,
            step: 50,
            max_replications: 400,
        };
        assert!(SmcSession::new(&model, o).is_err());
        o = SmcOptions::new(100);
        o.stopping = Stopping::Sequential {
            target_half_width: 0.05,
            step: 0,
            max_replications: 400,
        };
        assert!(SmcSession::new(&model, o).is_err());
        assert!(SmcSession::new(&model, SmcOptions::new(100)).is_ok());
    }

    #[test]
    fn expect_is_the_discretized_initial_fraction() {
        let model = sis();
        let session = SmcSession::new(&model, SmcOptions::new(100)).unwrap();
        let psi =
            MfFormula::expect(Comparison::Gt, 0.5, StateFormula::Ap("healthy".into())).unwrap();
        let v = session.check(&psi, &m0()).unwrap();
        assert!(v.holds);
        assert_eq!(v.operators.len(), 1);
        let op = &v.operators[0];
        assert!((op.estimate.mean - 0.9).abs() < 1e-12);
        assert_eq!(op.estimate.half_width(), 0.0);
        assert!(!v.marginal);
    }

    #[test]
    fn ep_estimate_carries_a_wilson_interval() {
        let model = sis();
        let mut o = SmcOptions::new(100);
        o.replications = 80;
        o.threads = 2;
        let session = SmcSession::new(&model, o).unwrap();
        let v = session
            .check(&ep_until(Comparison::Gt, 0.2, 2.0), &m0())
            .unwrap();
        let op = &v.operators[0];
        assert_eq!(op.estimate.n, 80);
        assert!(op.estimate.lo <= op.estimate.mean && op.estimate.mean <= op.estimate.hi);
        assert!(op.estimate.half_width() > 0.0);
        assert_eq!(v.population, 100);
    }

    #[test]
    fn results_are_thread_count_invariant_and_memoized() {
        let model = sis();
        let psi = ep_until(Comparison::Gt, 0.2, 2.0);
        let mut o = SmcOptions::new(100);
        o.replications = 60;
        o.threads = 1;
        let s1 = SmcSession::new(&model, o).unwrap();
        let v1 = s1.check(&psi, &m0()).unwrap();
        o.threads = 8;
        let s8 = SmcSession::new(&model, o).unwrap();
        let v8 = s8.check(&psi, &m0()).unwrap();
        assert_eq!(v1, v8);
        // Second check on the same session is served from the batch.
        let again = s8.check(&psi, &m0()).unwrap();
        assert_eq!(v8, again);
        let stats = s8.stats();
        assert_eq!(stats.replications_run, 60);
        assert_eq!(stats.batch_hits, 1);
        assert_eq!(stats.batch_misses, 1);
    }

    #[test]
    fn sequential_stopping_grows_until_target() {
        let model = sis();
        let psi = ep_until(Comparison::Gt, 0.2, 2.0);
        let mut o = SmcOptions::new(100);
        o.replications = 20;
        o.stopping = Stopping::Sequential {
            target_half_width: 0.08,
            step: 40,
            max_replications: 2000,
        };
        let session = SmcSession::new(&model, o).unwrap();
        let v = session.check(&psi, &m0()).unwrap();
        assert!(v.replications > 20, "{}", v.replications);
        let op = &v.operators[0];
        assert!(op.estimate.half_width() <= 0.08, "{:?}", op.estimate);
        // Growing the batch matches a from-scratch fixed run of the same
        // size: replication i's seed does not depend on history.
        let mut fixed = SmcOptions::new(100);
        fixed.replications = v.replications;
        let fresh = SmcSession::new(&model, fixed).unwrap();
        let v2 = fresh.check(&psi, &m0()).unwrap();
        assert_eq!(v.operators, v2.operators);
    }

    #[test]
    fn unsupported_fragments_and_unknown_aps_are_structured_errors() {
        let model = sis();
        let session = SmcSession::new(&model, SmcOptions::new(50)).unwrap();
        let nested = MfFormula::expect(
            Comparison::Gt,
            0.5,
            StateFormula::Steady {
                cmp: Comparison::Gt,
                p: 0.5,
                inner: Box::new(StateFormula::True),
            },
        )
        .unwrap();
        match session.check(&nested, &m0()) {
            Err(CoreError::Csl(CslError::Unsupported(_))) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
        let typo =
            MfFormula::expect(Comparison::Gt, 0.5, StateFormula::Ap("healty".into())).unwrap();
        match session.check(&typo, &m0()) {
            Err(CoreError::Csl(CslError::UnknownAtomicProposition(ap))) => {
                assert_eq!(ap, "healty");
            }
            other => panic!("expected UnknownAtomicProposition, got {other:?}"),
        }
        // Validation happens before sampling.
        assert_eq!(session.stats().replications_run, 0);
    }

    #[test]
    fn es_estimate_approaches_the_stationary_fraction() {
        // SIS with infection 2·m[1] and recovery 1 has a stable fixed
        // point at m[1] = 1/2.
        let model = sis();
        let mut o = SmcOptions::new(400);
        o.replications = 60;
        o.threads = 4;
        o.steady_horizon = 30.0;
        let session = SmcSession::new(&model, o).unwrap();
        let psi =
            MfFormula::expect_steady(Comparison::Gt, 0.25, StateFormula::Ap("infected".into()))
                .unwrap();
        let v = session.check(&psi, &m0()).unwrap();
        let op = &v.operators[0];
        assert!(
            (op.estimate.mean - 0.5).abs() < 0.1,
            "steady estimate {:?}",
            op.estimate
        );
        assert!(v.holds);
    }

    #[test]
    fn exact_fraction_matches_meanfield_limit_direction() {
        // At N = 40 the lumped chain is exact; the helper must reproduce
        // the initial condition at t = 0.
        let model = sis();
        let f0 = exact_expected_fraction(
            &model,
            40,
            &m0(),
            &StateFormula::Ap("infected".into()),
            0.0,
            100_000,
        )
        .unwrap();
        assert!((f0 - 0.1).abs() < 1e-9, "{f0}");
    }
}
