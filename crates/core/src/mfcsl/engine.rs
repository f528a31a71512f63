//! The memoizing analysis engine: [`CheckSession`].
//!
//! A session owns every expensive intermediate artifact produced while
//! checking MF-CSL formulas against one [`LocalModel`], and shares them
//! across formulas:
//!
//! * **Mean-field trajectories** — solved once per initial occupancy (the
//!   cache key is the bit pattern of `m̄(0)`; tolerances are fixed per
//!   session) and *extended in place* when a later formula needs a longer
//!   horizon, restarting the integrator from the final knot instead of
//!   re-solving from `t = 0`. Extension keeps the already-solved prefix
//!   bitwise identical, which is what keeps the CSL-layer memo entries
//!   below valid after the horizon grows.
//! * **CSL satisfaction sets and probability curves** — one
//!   [`SatCache`] per trajectory entry hash-conses
//!   every CSL subformula and memoizes the per-subformula
//!   [`PiecewiseStateSet`](mfcsl_csl::nested::PiecewiseStateSet)s and
//!   [`ProbCurve`]s, so operators shared between formulas (or repeated
//!   within one) are developed once.
//! * **Stationary regimes** — the fixed point reached from each initial
//!   occupancy and the chain frozen at it, computed once per `m̄(0)` for
//!   all `ES` operators.
//!
//! Cached checks run the *same code* as the uncached [`Checker`] — the
//! cache is threaded as an `Option` through one shared implementation —
//! so a session's verdicts, interval sets, and curves are bitwise
//! identical to an uncached checker handed the same trajectory, and
//! repeated queries are bitwise identical to the first.
//!
//! # Parallelism
//!
//! The session is `Send + Sync`: entries live in sharded reader–writer
//! maps handing out `Arc`s, each trajectory sits behind its own `RwLock`
//! (readers share; extension takes the write side), and the counters are
//! atomics. Attach a [`ThreadPool`] with [`CheckSession::with_pool`] and
//! the independent work units fan out as pool tasks: the formulas of a
//! [`CheckSession::check_all`] batch and the initial occupancies of a
//! [`CheckSession::csat_sweep`]. Results are collected in input order and
//! every task runs the same serial checking code against the shared
//! caches, so verdicts, interval sets, and curves are bitwise identical
//! to the serial path at any thread count.
//!
//! [`EngineStats`] exposes hit/miss counters, ODE work, and per-solve
//! wall times; the CLI surfaces them behind `--stats`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use mfcsl_csl::checker::{InhomogeneousChecker, ProbCurve};
use mfcsl_csl::model::StationaryRegime;
use mfcsl_csl::{CacheStats, PathFormula, SatCache, SatCacheExport, Tolerances};
use mfcsl_math::{alloc_counter, IntervalSet};
use mfcsl_ode::{BatchMode, Trajectory};
use mfcsl_pool::shard::ShardedMap;
use mfcsl_pool::ThreadPool;

use crate::meanfield::{self, OccupancyTrajectory};
use crate::mfcsl::check::{Checker, Refinement, Verdict};
use crate::mfcsl::syntax::MfFormula;
use crate::{CoreError, LocalModel, Occupancy};

/// Maximum tightening rounds spent refining one marginal verdict.
const MAX_REFINE_ROUNDS: u32 = 3;

/// How a recorded mean-field ODE integration came about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveKind {
    /// A full solve from `t = 0` for a new initial occupancy.
    Fresh,
    /// An extension of an existing trajectory to a longer horizon.
    Extension,
    /// A tightened-tolerance solve made while refining a marginal verdict.
    Refinement,
}

/// One mean-field ODE integration performed by a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveRecord {
    /// Fresh solve, extension, or marginal-verdict refinement.
    pub kind: SolveKind,
    /// Integration start time (`0` for fresh solves, the previous horizon
    /// for extensions).
    pub t_from: f64,
    /// Integration end time (the new trajectory horizon).
    pub t_to: f64,
    /// Accepted integrator steps in this integration.
    pub ode_steps: usize,
    /// Rejected step attempts in this integration.
    pub rejected_steps: usize,
    /// Right-hand-side evaluations in this integration.
    pub rhs_evals: usize,
    /// Recovery-ladder rescues in this integration (see
    /// [`mfcsl_ode::recover`]); zero for a healthy solve.
    pub recoveries: usize,
    /// Rescues that fell back to the A-stable implicit trapezoid.
    pub stiff_fallbacks: usize,
    /// Wall-clock time of the integration.
    pub wall: Duration,
    /// `Some(lane)` when this solve rode the batched drive
    /// ([`CheckSession::prewarm`]) as the given lane; `None` for scalar
    /// integrations.
    pub batch_lane: Option<usize>,
}

/// Heap footprint of one checking kernel, bracketed with
/// [`mfcsl_math::alloc_counter`]. Only recorded when the running binary
/// installed the counting allocator (the `mfcsl` binary and the benchmark
/// drivers do; library tests do not), so sessions in counter-less
/// processes carry no records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelAllocRecord {
    /// Kernel label, e.g. `csat (0.8, 0.15, 0.05)`.
    pub kernel: String,
    /// Heap allocations made while the kernel ran.
    pub allocations: u64,
    /// Peak bytes the live heap grew above the kernel's entry point — for
    /// checking kernels, dominated by the resident matrices (dense
    /// transients are `O(K²)`, the sparse lane `O(nnz)`). The counter is
    /// process-global: when a pool fans kernels out, concurrent kernels'
    /// allocations land in each other's brackets, so per-kernel peaks are
    /// exact in serial runs and upper bounds in parallel ones.
    pub peak_bytes: u64,
}

/// Snapshot of a session's counters, taken by [`CheckSession::stats`].
///
/// The counters themselves are plain atomics bumped on each event, so
/// keeping statistics costs almost nothing when nobody asks for them;
/// building this snapshot is the only allocating operation.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Full mean-field solves from `t = 0`.
    pub trajectory_solves: u64,
    /// In-place trajectory extensions to a longer horizon.
    pub trajectory_extensions: u64,
    /// Queries served by an already-long-enough trajectory.
    pub trajectory_reuses: u64,
    /// Trajectory entries restored from a persisted snapshot
    /// ([`CheckSession::restore_trajectory`]) instead of being solved.
    pub trajectory_restores: u64,
    /// Stationary regimes computed (one settle + Newton polish each).
    pub regime_solves: u64,
    /// `ES` queries served by a cached stationary regime.
    pub regime_reuses: u64,
    /// Right-hand-side evaluations of the settle integrations behind
    /// `regime_solves`. Kept out of [`EngineStats::total_rhs_evals`],
    /// which counts trajectory integrations only.
    pub regime_rhs_evals: u64,
    /// Integrations rescued by the recovery ladder (relaxed controller or
    /// stiff fallback) instead of failing.
    pub recoveries: u64,
    /// Rescued integrations that used the A-stable implicit-trapezoid
    /// fallback.
    pub stiff_fallbacks: u64,
    /// Marginal verdicts that entered automatic refinement.
    pub refined_verdicts: u64,
    /// Total tightening rounds run across all refined verdicts.
    pub refine_rounds: u64,
    /// Trajectory cache entries populated by batched sweep prewarms
    /// ([`CheckSession::prewarm`]) instead of per-occupancy scalar solves.
    pub batch_prewarmed: u64,
    /// CSL-layer cache counters, aggregated over all trajectory entries.
    pub cache: CacheStats,
    /// Every ODE integration performed, in order of completion.
    pub solves: Vec<SolveRecord>,
    /// Per-kernel heap brackets ([`KernelAllocRecord`]), in order of
    /// completion; empty when the binary has no counting allocator.
    pub kernel_allocs: Vec<KernelAllocRecord>,
}

impl EngineStats {
    /// Total right-hand-side evaluations across all recorded integrations.
    #[must_use]
    pub fn total_rhs_evals(&self) -> usize {
        self.solves.iter().map(|s| s.rhs_evals).sum()
    }

    /// Folds another snapshot into this one. Used by aggregators (the
    /// serving daemon's `/metrics`) that report one combined view over
    /// many sessions; `solves` records are concatenated in the order the
    /// snapshots are merged.
    pub fn merge(&mut self, other: &EngineStats) {
        self.trajectory_solves += other.trajectory_solves;
        self.trajectory_extensions += other.trajectory_extensions;
        self.trajectory_reuses += other.trajectory_reuses;
        self.trajectory_restores += other.trajectory_restores;
        self.regime_solves += other.regime_solves;
        self.regime_reuses += other.regime_reuses;
        self.regime_rhs_evals += other.regime_rhs_evals;
        self.recoveries += other.recoveries;
        self.stiff_fallbacks += other.stiff_fallbacks;
        self.refined_verdicts += other.refined_verdicts;
        self.refine_rounds += other.refine_rounds;
        self.batch_prewarmed += other.batch_prewarmed;
        self.cache.set_hits += other.cache.set_hits;
        self.cache.set_misses += other.cache.set_misses;
        self.cache.curve_hits += other.cache.curve_hits;
        self.cache.curve_misses += other.cache.curve_misses;
        self.cache.interned_state_formulas += other.cache.interned_state_formulas;
        self.cache.interned_path_formulas += other.cache.interned_path_formulas;
        self.cache.cached_sets += other.cache.cached_sets;
        self.cache.cached_curves += other.cache.cached_curves;
        self.solves.extend_from_slice(&other.solves);
        self.kernel_allocs.extend_from_slice(&other.kernel_allocs);
    }
}

struct Entry<'a> {
    /// The solved trajectory; readers share, extension takes the write
    /// side. Extension replaces the value with one whose solved prefix is
    /// bitwise identical, so concurrent readers before/after an extension
    /// observe the same prefix values.
    trajectory: RwLock<OccupancyTrajectory<'a>>,
    cache: SatCache,
}

/// One base entry's full exported warm state, as produced by
/// [`CheckSession::export_entries`]: everything a snapshot needs so a
/// restarted session answers its first request without re-solving the
/// trajectory, the stationary fixed point, or any memoized CSL artifact.
#[derive(Debug, Clone)]
pub struct SessionEntryExport {
    /// The entry's initial occupancy.
    pub m0: Occupancy,
    /// The solved mean-field trajectory.
    pub trajectory: Trajectory,
    /// The stationary regime reached from `m0`, when one was computed
    /// (`ES` queries). The frozen chain is not exported — it rebuilds
    /// bitwise from the model at the stationary occupancy.
    pub regime: Option<RegimeExport>,
    /// The entry's sat-cache (interned formulas plus memoized sets and
    /// curves).
    pub cache: SatCacheExport,
}

/// The persistable part of a stationary regime; see
/// [`SessionEntryExport::regime`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeExport {
    /// The stationary occupancy `m̃`.
    pub distribution: Vec<f64>,
    /// Time from which the trajectory has numerically settled onto `m̃`,
    /// when known.
    pub settle_time: Option<f64>,
}

/// A memoizing checking session over one model: the `AnalysisEngine` of
/// the stack.
///
/// All methods take `&self`; the session is `Send + Sync` and may be
/// shared across threads — attach a pool with
/// [`CheckSession::with_pool`] to fan batches out (see the
/// [module docs](self)).
///
/// # Example
///
/// ```
/// use mfcsl_core::mfcsl::{parse_formula, CheckSession};
/// use mfcsl_core::{LocalModel, Occupancy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = LocalModel::builder()
///     .state("s", ["healthy"])
///     .state("i", ["infected"])
///     .transition("s", "i", |m: &Occupancy| 2.0 * m[1])?
///     .constant_transition("i", "s", 1.0)?
///     .build()?;
/// let session = CheckSession::new(&model);
/// let m0 = Occupancy::new(vec![0.9, 0.1])?;
/// // Both formulas share one trajectory solve and the CSL work for
/// // the common `infected` subformula:
/// assert!(session.check(&parse_formula("E{<0.2}[ infected ]")?, &m0)?.holds());
/// assert!(session.check(&parse_formula("EP{>0.1}[ tt U[0,2] infected ]")?, &m0)?.holds());
/// assert_eq!(session.stats().trajectory_solves, 1);
/// # Ok(())
/// # }
/// ```
pub struct CheckSession<'a> {
    checker: Checker<'a>,
    pool: Option<Arc<ThreadPool>>,
    /// Controller mode of the batched sweep prewarm
    /// ([`CheckSession::prewarm`]).
    batch_mode: BatchMode,
    entries: ShardedMap<Vec<u64>, Arc<Entry<'a>>>,
    /// Per-key creation gates: the first thread to need an entry solves
    /// while holding its gate, so concurrent callers with the same `m̄(0)`
    /// solve the mean-field ODE exactly once.
    entry_gates: ShardedMap<Vec<u64>, Arc<Mutex<()>>>,
    regimes: ShardedMap<Vec<u64>, StationaryRegime>,
    /// Serializes stationary-regime computation (rare and expensive), so
    /// racing `ES` queries compute each regime exactly once.
    regime_gate: Mutex<()>,
    trajectory_solves: AtomicU64,
    trajectory_extensions: AtomicU64,
    trajectory_reuses: AtomicU64,
    trajectory_restores: AtomicU64,
    regime_solves: AtomicU64,
    regime_reuses: AtomicU64,
    regime_rhs_evals: AtomicU64,
    recoveries: AtomicU64,
    stiff_fallbacks: AtomicU64,
    refined_verdicts: AtomicU64,
    refine_rounds: AtomicU64,
    batch_prewarmed: AtomicU64,
    solves: Mutex<Vec<SolveRecord>>,
    kernel_allocs: Mutex<Vec<KernelAllocRecord>>,
}

impl<'a> CheckSession<'a> {
    /// Creates a session with default tolerances.
    #[must_use]
    pub fn new(model: &'a LocalModel) -> Self {
        CheckSession::from_checker(Checker::new(model))
    }

    /// Creates a session with explicit tolerances.
    #[must_use]
    pub fn with_tolerances(model: &'a LocalModel, tol: Tolerances) -> Self {
        CheckSession::from_checker(Checker::with_tolerances(model, tol))
    }

    /// Wraps an already-configured checker (settle time, tolerances).
    #[must_use]
    pub fn from_checker(checker: Checker<'a>) -> Self {
        CheckSession {
            checker,
            pool: None,
            batch_mode: BatchMode::PerLane,
            entries: ShardedMap::new(),
            entry_gates: ShardedMap::new(),
            regimes: ShardedMap::new(),
            regime_gate: Mutex::new(()),
            trajectory_solves: AtomicU64::new(0),
            trajectory_extensions: AtomicU64::new(0),
            trajectory_reuses: AtomicU64::new(0),
            trajectory_restores: AtomicU64::new(0),
            regime_solves: AtomicU64::new(0),
            regime_reuses: AtomicU64::new(0),
            regime_rhs_evals: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            stiff_fallbacks: AtomicU64::new(0),
            refined_verdicts: AtomicU64::new(0),
            refine_rounds: AtomicU64::new(0),
            batch_prewarmed: AtomicU64::new(0),
            solves: Mutex::new(Vec::new()),
            kernel_allocs: Mutex::new(Vec::new()),
        }
    }

    /// Attaches a thread pool: batch entry points
    /// ([`CheckSession::check_all`], [`CheckSession::csat_sweep`]) fan
    /// their independent work units out as pool tasks. Verdicts and sets
    /// stay bitwise identical to the pool-less session.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The attached pool, if any.
    #[must_use]
    pub fn pool(&self) -> Option<&ThreadPool> {
        self.pool.as_deref()
    }

    /// Selects the step-size controller of the batched sweep prewarm
    /// ([`CheckSession::prewarm`]).
    ///
    /// The default, [`BatchMode::PerLane`], keeps every cached trajectory
    /// bitwise identical to the scalar per-occupancy solve.
    /// [`BatchMode::Shared`] drives the whole batch on one controller —
    /// fewer total RHS evaluations for clustered initial occupancies, but
    /// trajectories may differ from the scalar path within the solver
    /// tolerances, so verdict-critical sessions should keep the default.
    #[must_use]
    pub fn with_batch_mode(mut self, mode: BatchMode) -> Self {
        self.batch_mode = mode;
        self
    }

    /// The batched-prewarm controller mode.
    #[must_use]
    pub fn batch_mode(&self) -> BatchMode {
        self.batch_mode
    }

    /// The underlying (uncached) checker.
    #[must_use]
    pub fn checker(&self) -> &Checker<'a> {
        &self.checker
    }

    /// The model under analysis.
    #[must_use]
    pub fn model(&self) -> &'a LocalModel {
        self.checker.model()
    }

    /// Checks `m̄ ⊨ Ψ`, reusing every applicable cached artifact.
    ///
    /// A verdict that comes back *marginal* — the compared value within the
    /// numerical margin of its bound — is automatically re-checked at
    /// tightened tolerances (rtol/atol and the margin halve each round, up
    /// to `MAX_REFINE_ROUNDS` rounds) until it leaves the margin or the
    /// budget runs out; the final verdict carries the [`Refinement`]
    /// record. Non-marginal verdicts are bitwise identical to a session
    /// without refinement.
    ///
    /// # Errors
    ///
    /// See [`Checker::check`].
    pub fn check(&self, psi: &MfFormula, m0: &Occupancy) -> Result<Verdict, CoreError> {
        self.alloc_bracket(
            || format!("check {psi}"),
            || {
                let base = self.check_round(&self.checker, 0, psi, m0)?;
                if !base.is_marginal() {
                    return Ok(base);
                }
                self.refine(psi, m0)
            },
        )
    }

    /// Runs `f` inside an [`alloc_counter`] bracket and appends a
    /// [`KernelAllocRecord`] labeled by `kernel` — a no-op (beyond calling
    /// `f`) when the binary has no counting allocator installed.
    fn alloc_bracket<T>(
        &self,
        kernel: impl FnOnce() -> String,
        f: impl FnOnce() -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        if !alloc_counter::installed() {
            return f();
        }
        let base = alloc_counter::begin();
        let result = f();
        let d = alloc_counter::delta(base);
        self.kernel_allocs.lock().unwrap().push(KernelAllocRecord {
            kernel: kernel(),
            allocations: d.allocations,
            peak_bytes: d.peak_bytes,
        });
        result
    }

    /// One round of [`CheckSession::check`]: round 0 is the base check
    /// against the session's own checker and entry; rounds `>= 1` run a
    /// retuned checker against that round's refinement entry. Stationary
    /// regimes are tolerance-independent (fixed-point iteration, not ODE
    /// integration), so every round shares the session's regime cache.
    fn check_round(
        &self,
        checker: &Checker<'a>,
        round: u32,
        psi: &MfFormula,
        m0: &Occupancy,
    ) -> Result<Verdict, CoreError> {
        let entry = self.ensure_trajectory_for(checker, round, m0, psi.time_horizon())?;
        let trajectory = entry.trajectory.read().unwrap();
        let mut tv = trajectory.local_tv_model()?;
        if psi.requires_stationary() {
            tv = tv.with_stationary(self.stationary_regime(m0)?)?;
        }
        let csl = InhomogeneousChecker::with_tolerances(&tv, *checker.tolerances());
        checker.eval(Some(&entry.cache), psi, &csl, m0)
    }

    /// Re-checks a marginal verdict at progressively tightened tolerances.
    /// Each round's trajectory and CSL memo tables are session entries of
    /// their own, so re-refining the same formula (or refining another
    /// marginal formula over the same `m̄(0)`) reuses them.
    fn refine(&self, psi: &MfFormula, m0: &Occupancy) -> Result<Verdict, CoreError> {
        self.refined_verdicts.fetch_add(1, Ordering::Relaxed);
        let base_tol = *self.checker.tolerances();
        let mut last = None;
        let mut final_margin = base_tol.margin;
        let mut rounds = 0;
        for round in 1..=MAX_REFINE_ROUNDS {
            let tol = tightened(&base_tol, round);
            final_margin = tol.margin;
            rounds = round;
            self.refine_rounds.fetch_add(1, Ordering::Relaxed);
            let checker = self.checker.retuned(tol);
            let v = self.check_round(&checker, round, psi, m0)?;
            let done = !v.is_marginal();
            last = Some(v);
            if done {
                break;
            }
        }
        // The loop always runs at least once, so `last` is set.
        let last = last.unwrap_or_else(|| unreachable!("refinement runs at least one round"));
        Ok(last.with_refinement(Refinement {
            rounds,
            final_margin,
            decided: !last.is_marginal(),
        }))
    }

    /// Checks a batch of formulas against one occupancy vector.
    ///
    /// The trajectory horizon is taken as the maximum over the whole batch
    /// *up front*, so the mean-field ODE is solved to its final length
    /// once instead of being grown formula by formula. With a pool
    /// attached, the per-formula checks then run as parallel tasks over
    /// the shared trajectory and caches; verdicts are collected in
    /// formula order.
    ///
    /// # Errors
    ///
    /// Fails on the first (in input order) formula that fails; see
    /// [`Checker::check`].
    pub fn check_all(&self, psis: &[MfFormula], m0: &Occupancy) -> Result<Vec<Verdict>, CoreError> {
        let horizon = psis.iter().map(MfFormula::time_horizon).fold(0.0, f64::max);
        if !psis.is_empty() {
            self.ensure_trajectory(m0, horizon)?;
        }
        match &self.pool {
            Some(pool) if pool.threads() > 1 && psis.len() > 1 => pool
                .map_indexed(psis.len(), |i| self.check(&psis[i], m0))
                .into_iter()
                .collect(),
            _ => psis.iter().map(|psi| self.check(psi, m0)).collect(),
        }
    }

    /// Computes `cSat(Ψ, m̄, θ)` (see [`Checker::csat`]), reusing cached
    /// artifacts.
    ///
    /// # Errors
    ///
    /// See [`Checker::csat`].
    pub fn csat(
        &self,
        psi: &MfFormula,
        m0: &Occupancy,
        theta: f64,
    ) -> Result<IntervalSet, CoreError> {
        self.alloc_bracket(|| format!("csat {m0}"), || self.csat_inner(psi, m0, theta))
    }

    fn csat_inner(
        &self,
        psi: &MfFormula,
        m0: &Occupancy,
        theta: f64,
    ) -> Result<IntervalSet, CoreError> {
        if !(theta >= 0.0) || !theta.is_finite() {
            return Err(CoreError::InvalidArgument(format!(
                "evaluation horizon must be finite and non-negative, got {theta}"
            )));
        }
        let entry = self.ensure_trajectory(m0, theta + psi.time_horizon())?;
        let trajectory = entry.trajectory.read().unwrap();
        let mut tv = trajectory.local_tv_model()?;
        if psi.requires_stationary() {
            tv = tv.with_stationary(self.stationary_regime(m0)?)?;
        }
        let csl = InhomogeneousChecker::with_tolerances(&tv, *self.checker.tolerances());
        self.checker
            .csat_rec(Some(&entry.cache), psi, &csl, &trajectory, theta)
    }

    /// Computes `cSat(Ψ, m̄, θ)` for a whole sweep of initial occupancies
    /// — the per-initial-state satisfaction analysis behind CSat region
    /// plots. With a pool attached, the occupancies run as parallel tasks
    /// (each with its own trajectory entry, solved once); results are
    /// collected in input order and are bitwise identical to calling
    /// [`CheckSession::csat`] one occupancy at a time.
    ///
    /// # Errors
    ///
    /// Fails on the first (in input order) occupancy that fails; see
    /// [`Checker::csat`].
    pub fn csat_sweep(
        &self,
        psi: &MfFormula,
        m0s: &[Occupancy],
        theta: f64,
    ) -> Result<Vec<IntervalSet>, CoreError> {
        if m0s.len() > 1 {
            // Best-effort: solve all missing trajectories with one batched
            // drive before the per-occupancy pass. Problems (bad occupancy,
            // invalid horizon, a diverging lane) are deliberately not
            // surfaced here — the scalar path below reports them in input
            // order, preserving the error contract.
            let _ = self.prewarm(m0s, theta + psi.time_horizon());
        }
        match &self.pool {
            Some(pool) if pool.threads() > 1 && m0s.len() > 1 => pool
                .map_indexed(m0s.len(), |i| self.csat(psi, &m0s[i], theta))
                .into_iter()
                .collect(),
            _ => m0s.iter().map(|m0| self.csat(psi, m0, theta)).collect(),
        }
    }

    /// Pre-populates the trajectory cache for a sweep: every occupancy in
    /// `m0s` without a cached entry is solved over `[0, horizon]` by **one**
    /// batched Dopri5 drive ([`meanfield::solve_batch`]) instead of one
    /// scalar integration each, sharing the per-step `m̄·Q(m̄)` kernel
    /// dispatch across all lanes. Returns the number of entries created.
    ///
    /// In the default [`BatchMode::PerLane`] mode the cached trajectories
    /// are bitwise identical to what the scalar path would have produced —
    /// including solver statistics — so warmed sweeps return bitwise the
    /// same answers as cold ones. A lane the batch cannot finish (even
    /// through the scalar recovery ladder it detaches to) is simply left
    /// uncached; the per-occupancy pass re-solves it and surfaces the error
    /// in input order.
    ///
    /// The call is a no-op (returns `Ok(0)`) when fewer than two lanes are
    /// missing, when the horizon is invalid (the scalar path owns that
    /// error), or when the checker carries a fault-injection plan — the
    /// fault stream is defined over *scalar* RHS calls, so chaos runs must
    /// keep the scalar path to stay deterministic.
    ///
    /// # Errors
    ///
    /// Propagates allocation-bracket bookkeeping failures only; solver
    /// problems never error here (see above).
    pub fn prewarm(&self, m0s: &[Occupancy], horizon: f64) -> Result<usize, CoreError> {
        if self.checker.fault_plan().is_some() || !(horizon >= 0.0) || !horizon.is_finite() {
            return Ok(0);
        }
        let n = self.model().n_states();
        let mut missing: Vec<Occupancy> = Vec::new();
        let mut keys: Vec<Vec<u64>> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for m0 in m0s {
            if m0.len() != n {
                continue; // the scalar path reports this in input order
            }
            let key = occupancy_key(m0);
            if self.entries.get(&key).is_some() || !seen.insert(key.clone()) {
                continue;
            }
            keys.push(key);
            missing.push(m0.clone());
        }
        if missing.len() < 2 {
            return Ok(0);
        }
        self.alloc_bracket(
            || format!("prewarm x{}", missing.len()),
            || {
                let start = Instant::now();
                let Ok(sweep) = meanfield::solve_batch(
                    self.model(),
                    &missing,
                    horizon,
                    &self.checker.tolerances().ode,
                    self.batch_mode,
                ) else {
                    return Ok(0); // scalar path owns error reporting
                };
                // One drive produced every lane; attribute wall time evenly.
                let per_lane_wall = start.elapsed() / sweep.lanes.len().max(1) as u32;
                let mut warmed = 0;
                for (lane, (key, result)) in keys.into_iter().zip(sweep.lanes).enumerate() {
                    let Ok((trajectory, _recovery)) = result else {
                        continue; // re-solved (and re-failed) in input order
                    };
                    let gate = self
                        .entry_gates
                        .get_or_insert_with(key.clone(), || Arc::new(Mutex::new(())));
                    let _guard = gate.lock().unwrap();
                    if self.entries.get(&key).is_some() {
                        continue; // raced with a scalar solve; keep theirs
                    }
                    let stats = trajectory.trajectory().stats();
                    self.record_solve(SolveRecord {
                        kind: SolveKind::Fresh,
                        t_from: 0.0,
                        t_to: trajectory.t_end(),
                        ode_steps: stats.accepted,
                        rejected_steps: stats.rejected,
                        rhs_evals: stats.rhs_evals,
                        recoveries: stats.recoveries,
                        stiff_fallbacks: stats.stiff_fallbacks,
                        wall: per_lane_wall,
                        batch_lane: Some(lane),
                    });
                    self.trajectory_solves.fetch_add(1, Ordering::Relaxed);
                    self.batch_prewarmed.fetch_add(1, Ordering::Relaxed);
                    let entry = Arc::new(Entry {
                        trajectory: RwLock::new(trajectory),
                        cache: SatCache::new(),
                    });
                    self.entries.insert(key, Arc::clone(&entry));
                    warmed += 1;
                }
                Ok(warmed)
            },
        )
    }

    /// The per-state path-probability curve `t ↦ Prob(s, φ, m̄, t)` over
    /// `[0, θ]`, memoized per subformula (the curve behind `EP⋈p(φ)`;
    /// compare [`Checker::ep_curve`]).
    ///
    /// # Errors
    ///
    /// See [`Checker::check`].
    pub fn path_prob_curve(
        &self,
        path: &PathFormula,
        m0: &Occupancy,
        theta: f64,
    ) -> Result<Arc<ProbCurve>, CoreError> {
        let psi = MfFormula::ExpectPath {
            cmp: mfcsl_csl::Comparison::Gt,
            p: 0.0,
            path: path.clone(),
        };
        let entry = self.ensure_trajectory(m0, theta + psi.time_horizon())?;
        let trajectory = entry.trajectory.read().unwrap();
        let tv = trajectory.local_tv_model()?;
        let csl = InhomogeneousChecker::with_tolerances(&tv, *self.checker.tolerances());
        Ok(csl.path_prob_curve_cached(&entry.cache, path, theta)?)
    }

    /// The stationary regime reached from `m0`, computed once per initial
    /// occupancy.
    ///
    /// # Errors
    ///
    /// See [`Checker::check`].
    pub fn stationary_regime(&self, m0: &Occupancy) -> Result<StationaryRegime, CoreError> {
        let key = occupancy_key(m0);
        if let Some(regime) = self.regimes.get(&key) {
            self.regime_reuses.fetch_add(1, Ordering::Relaxed);
            return Ok(regime);
        }
        let _gate = self.regime_gate.lock().unwrap();
        if let Some(regime) = self.regimes.get(&key) {
            self.regime_reuses.fetch_add(1, Ordering::Relaxed);
            return Ok(regime);
        }
        let (mut regime, settle_rhs_evals) = self.checker.stationary_regime(m0)?;
        self.regime_rhs_evals
            .fetch_add(settle_rhs_evals as u64, Ordering::Relaxed);
        // Regime hand-off: when this session already holds the trajectory
        // for `m0`, stamp the regime with the time it reached `m̃`, so the
        // CSL layer can replace post-settle window propagation with one
        // uniformization of the frozen chain.
        if let Some(entry) = self.entries.get(&key) {
            let trajectory = entry.trajectory.read().unwrap();
            regime.settle_time =
                trajectory.settled_near(&regime.distribution, crate::meanfield::STEADY_DETECT_EPS);
        }
        self.regime_solves.fetch_add(1, Ordering::Relaxed);
        self.regimes.insert(key, regime.clone());
        Ok(regime)
    }

    /// A snapshot of the session's statistics.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let mut cache = CacheStats::default();
        self.entries.for_each(|_, entry| {
            let s = entry.cache.stats();
            cache.set_hits += s.set_hits;
            cache.set_misses += s.set_misses;
            cache.curve_hits += s.curve_hits;
            cache.curve_misses += s.curve_misses;
            cache.interned_state_formulas += s.interned_state_formulas;
            cache.interned_path_formulas += s.interned_path_formulas;
            cache.cached_sets += s.cached_sets;
            cache.cached_curves += s.cached_curves;
        });
        EngineStats {
            trajectory_solves: self.trajectory_solves.load(Ordering::Relaxed),
            trajectory_extensions: self.trajectory_extensions.load(Ordering::Relaxed),
            trajectory_reuses: self.trajectory_reuses.load(Ordering::Relaxed),
            trajectory_restores: self.trajectory_restores.load(Ordering::Relaxed),
            regime_solves: self.regime_solves.load(Ordering::Relaxed),
            regime_reuses: self.regime_reuses.load(Ordering::Relaxed),
            regime_rhs_evals: self.regime_rhs_evals.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            stiff_fallbacks: self.stiff_fallbacks.load(Ordering::Relaxed),
            refined_verdicts: self.refined_verdicts.load(Ordering::Relaxed),
            refine_rounds: self.refine_rounds.load(Ordering::Relaxed),
            batch_prewarmed: self.batch_prewarmed.load(Ordering::Relaxed),
            cache,
            solves: self.solves.lock().unwrap().clone(),
            kernel_allocs: self.kernel_allocs.lock().unwrap().clone(),
        }
    }

    /// Drops every cached trajectory, memo table, and stationary regime
    /// (use when the model's interpretation changed out from under the
    /// session). Counters are kept.
    pub fn clear(&self) {
        self.entries.clear();
        self.entry_gates.clear();
        self.regimes.clear();
    }

    /// Owned copies of every *base* trajectory entry (round-0 solves keyed
    /// by the occupancy bit pattern alone), as `(m̄(0), trajectory)` pairs.
    /// This is the session's warm state worth persisting: sat-caches and
    /// stationary regimes recompute deterministically from a bitwise-equal
    /// trajectory, so snapshotting the trajectories alone preserves bitwise
    /// verdicts across a restart. Refinement entries are skipped — they are
    /// cheap derivatives of a marginal query, not warm state.
    #[must_use]
    pub fn export_trajectories(&self) -> Vec<(Occupancy, Trajectory)> {
        let n = self.model().n_states();
        let mut out = Vec::new();
        self.entries.for_each(|key, entry| {
            if key.len() != n {
                return; // refinement entry (round appended to the key)
            }
            let values: Vec<f64> = key.iter().map(|&bits| f64::from_bits(bits)).collect();
            let Ok(m0) = Occupancy::new(values) else {
                return; // cannot happen for keys built from valid occupancies
            };
            let trajectory = match entry.trajectory.read() {
                Ok(t) => t.trajectory().clone(),
                Err(_) => return,
            };
            out.push((m0, trajectory));
        });
        // `for_each` walks shards in map order; sort for a deterministic
        // snapshot layout.
        out.sort_by(|a, b| {
            a.0.as_slice()
                .iter()
                .map(|x| x.to_bits())
                .cmp(b.0.as_slice().iter().map(|x| x.to_bits()))
        });
        out
    }

    /// Owned copies of every base entry's *full* warm state — trajectory,
    /// stationary regime (when computed), and sat-cache — for snapshot
    /// persistence. Extends [`CheckSession::export_trajectories`]: the
    /// trajectory alone preserves bitwise verdicts, but the regime's
    /// fixed-point solve and the cache's satisfaction sets and probability
    /// curves are the expensive recomputation a restored first request
    /// would otherwise pay. Entries are sorted by occupancy bit pattern
    /// for a deterministic snapshot layout.
    #[must_use]
    pub fn export_entries(&self) -> Vec<SessionEntryExport> {
        let n = self.model().n_states();
        let mut out = Vec::new();
        self.entries.for_each(|key, entry| {
            if key.len() != n {
                return; // refinement entry (round appended to the key)
            }
            let values: Vec<f64> = key.iter().map(|&bits| f64::from_bits(bits)).collect();
            let Ok(m0) = Occupancy::new(values) else {
                return; // cannot happen for keys built from valid occupancies
            };
            let trajectory = match entry.trajectory.read() {
                Ok(t) => t.trajectory().clone(),
                Err(_) => return,
            };
            let regime = self.regimes.get(key).map(|r| RegimeExport {
                distribution: r.distribution.clone(),
                settle_time: r.settle_time,
            });
            out.push(SessionEntryExport {
                m0,
                trajectory,
                regime,
                cache: entry.cache.export(),
            });
        });
        out.sort_by(|a, b| {
            a.m0.as_slice()
                .iter()
                .map(|x| x.to_bits())
                .cmp(b.m0.as_slice().iter().map(|x| x.to_bits()))
        });
        out
    }

    /// Installs a previously exported entry — trajectory plus sat-cache —
    /// as the base entry for `m0`. The trajectory passes the same
    /// integrity checks as [`CheckSession::restore_trajectory`]; the cache
    /// is rebuilt through [`SatCache::from_export`], whose interned ids
    /// line up with what re-interning the same formulas produces, so the
    /// first request after a restart hits the memoized sets and curves.
    /// Returns `false` when an entry for `m0` already exists (live wins).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] on trajectory integrity failures or
    /// a structurally incoherent cache export.
    pub fn restore_entry(
        &self,
        m0: &Occupancy,
        trajectory: Trajectory,
        cache: &SatCacheExport,
    ) -> Result<bool, CoreError> {
        let n = self.model().n_states();
        if m0.len() != n {
            return Err(CoreError::InvalidArgument(format!(
                "restored occupancy has {} states, model has {n}",
                m0.len()
            )));
        }
        let cache = SatCache::from_export(cache)
            .map_err(|e| CoreError::InvalidArgument(format!("restored cache rejected: {e}")))?;
        let restored = OccupancyTrajectory::from_parts(self.model(), trajectory)?;
        let first = restored.trajectory().curve().value_at(0);
        let matches = first.len() == n
            && first
                .iter()
                .zip(m0.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !matches {
            return Err(CoreError::InvalidArgument(
                "restored trajectory's first knot does not match its occupancy key".into(),
            ));
        }
        let key = occupancy_key(m0);
        let gate = self
            .entry_gates
            .get_or_insert_with(key.clone(), || Arc::new(Mutex::new(())));
        let _guard = gate.lock().unwrap();
        if self.entries.get(&key).is_some() {
            return Ok(false);
        }
        self.entries.insert(
            key,
            Arc::new(Entry {
                trajectory: RwLock::new(restored),
                cache,
            }),
        );
        self.trajectory_restores.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Installs a previously exported stationary regime for `m0`. The
    /// frozen chain is rebuilt from the model at the persisted stationary
    /// occupancy — [`LocalModel::frozen_at`] is a pure evaluation, so the
    /// rebuilt chain is bitwise identical to the one computed live and
    /// every later `ES` verdict matches. Returns `false` when a regime for
    /// `m0` is already cached (live wins).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] when the distribution is not a valid
    /// occupancy for this model or the settle time is not finite.
    pub fn restore_regime(
        &self,
        m0: &Occupancy,
        distribution: &[f64],
        settle_time: Option<f64>,
    ) -> Result<bool, CoreError> {
        let stationary = Occupancy::new(distribution.to_vec())?;
        if stationary.len() != self.model().n_states() {
            return Err(CoreError::InvalidArgument(format!(
                "restored regime has {} states, model has {}",
                stationary.len(),
                self.model().n_states()
            )));
        }
        if settle_time.is_some_and(|t| !t.is_finite() || t < 0.0) {
            return Err(CoreError::InvalidArgument(format!(
                "restored regime settle time must be finite and non-negative, got {settle_time:?}"
            )));
        }
        let frozen = self.model().frozen_at(&stationary)?;
        let key = occupancy_key(m0);
        let _gate = self.regime_gate.lock().unwrap();
        if self.regimes.get(&key).is_some() {
            return Ok(false);
        }
        self.regimes.insert(
            key,
            StationaryRegime {
                distribution: stationary.into_vec(),
                frozen,
                settle_time,
            },
        );
        Ok(true)
    }

    /// Installs a previously exported trajectory as the base entry for
    /// `m0`, with a fresh sat-cache (the CSL layer repopulates it
    /// deterministically). Returns `false` when an entry for `m0` already
    /// exists — the live entry wins, a restore never clobbers solved state.
    ///
    /// The trajectory must belong to this session's model (dimension
    /// check), start at `t = 0`, and its first knot must reproduce `m0`'s
    /// exact bit pattern; anything else is rejected, which is what makes a
    /// snapshot restore safe to trust with the bitwise-verdict guarantee.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] on dimension, origin, or first-knot
    /// mismatches.
    pub fn restore_trajectory(
        &self,
        m0: &Occupancy,
        trajectory: Trajectory,
    ) -> Result<bool, CoreError> {
        let n = self.model().n_states();
        if m0.len() != n {
            return Err(CoreError::InvalidArgument(format!(
                "restored occupancy has {} states, model has {n}",
                m0.len()
            )));
        }
        let restored = OccupancyTrajectory::from_parts(self.model(), trajectory)?;
        let first = restored.trajectory().curve().value_at(0);
        let matches = first.len() == n
            && first
                .iter()
                .zip(m0.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !matches {
            return Err(CoreError::InvalidArgument(
                "restored trajectory's first knot does not match its occupancy key".into(),
            ));
        }
        let key = occupancy_key(m0);
        let gate = self
            .entry_gates
            .get_or_insert_with(key.clone(), || Arc::new(Mutex::new(())));
        let _guard = gate.lock().unwrap();
        if self.entries.get(&key).is_some() {
            return Ok(false);
        }
        self.entries.insert(
            key,
            Arc::new(Entry {
                trajectory: RwLock::new(restored),
                cache: SatCache::new(),
            }),
        );
        self.trajectory_restores.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Makes sure the trajectory for `m0` covers `[0, horizon]`, solving
    /// or extending as needed, and returns its entry.
    fn ensure_trajectory(&self, m0: &Occupancy, horizon: f64) -> Result<Arc<Entry<'a>>, CoreError> {
        self.ensure_trajectory_for(&self.checker, 0, m0, horizon)
    }

    /// [`CheckSession::ensure_trajectory`] generalized over the checker and
    /// refinement round. Base entries (round 0) are keyed by the occupancy
    /// bit pattern alone; refinement entries append the round, so all keys
    /// for one model differ in length or value and share the maps safely —
    /// and the base entries stay bitwise pristine no matter how much
    /// refinement happens.
    fn ensure_trajectory_for(
        &self,
        checker: &Checker<'a>,
        round: u32,
        m0: &Occupancy,
        horizon: f64,
    ) -> Result<Arc<Entry<'a>>, CoreError> {
        let mut key = occupancy_key(m0);
        if round > 0 {
            key.push(u64::from(round));
        }
        if let Some(entry) = self.entries.get(&key) {
            self.ensure_horizon(&entry, horizon, checker)?;
            return Ok(entry);
        }
        let gate = self
            .entry_gates
            .get_or_insert_with(key.clone(), || Arc::new(Mutex::new(())));
        let _guard = gate.lock().unwrap();
        if let Some(entry) = self.entries.get(&key) {
            drop(_guard);
            self.ensure_horizon(&entry, horizon, checker)?;
            return Ok(entry);
        }
        let start = Instant::now();
        let trajectory = checker.solve_to(m0, horizon)?;
        let stats = trajectory.trajectory().stats();
        self.record_solve(SolveRecord {
            kind: if round == 0 {
                SolveKind::Fresh
            } else {
                SolveKind::Refinement
            },
            t_from: 0.0,
            t_to: trajectory.t_end(),
            ode_steps: stats.accepted,
            rejected_steps: stats.rejected,
            rhs_evals: stats.rhs_evals,
            recoveries: stats.recoveries,
            stiff_fallbacks: stats.stiff_fallbacks,
            wall: start.elapsed(),
            batch_lane: None,
        });
        if round == 0 {
            self.trajectory_solves.fetch_add(1, Ordering::Relaxed);
        }
        let entry = Arc::new(Entry {
            trajectory: RwLock::new(trajectory),
            cache: SatCache::new(),
        });
        self.entries.insert(key, Arc::clone(&entry));
        Ok(entry)
    }

    /// Extends an existing entry's trajectory when `horizon` outgrows it,
    /// integrating with the given checker's ODE options (the session's own
    /// for base entries, the tightened ones for refinement entries).
    fn ensure_horizon(
        &self,
        entry: &Entry<'a>,
        horizon: f64,
        checker: &Checker<'a>,
    ) -> Result<(), CoreError> {
        {
            let trajectory = entry.trajectory.read().unwrap();
            if trajectory.t_end() >= horizon {
                self.trajectory_reuses.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        }
        let mut trajectory = entry.trajectory.write().unwrap();
        // Another thread may have extended past `horizon` while we waited
        // for the write lock.
        if trajectory.t_end() >= horizon {
            self.trajectory_reuses.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let t_from = trajectory.t_end();
        let before = trajectory.trajectory().stats();
        let start = Instant::now();
        let extended = trajectory
            .clone()
            .extended_to(horizon, &checker.tolerances().ode)?;
        let after = extended.trajectory().stats();
        self.record_solve(SolveRecord {
            kind: SolveKind::Extension,
            t_from,
            t_to: extended.t_end(),
            ode_steps: after.accepted - before.accepted,
            rejected_steps: after.rejected - before.rejected,
            rhs_evals: after.rhs_evals - before.rhs_evals,
            recoveries: after.recoveries - before.recoveries,
            stiff_fallbacks: after.stiff_fallbacks - before.stiff_fallbacks,
            wall: start.elapsed(),
            batch_lane: None,
        });
        self.trajectory_extensions.fetch_add(1, Ordering::Relaxed);
        *trajectory = extended;
        Ok(())
    }

    /// Appends one integration record and folds its recovery counters into
    /// the session totals.
    fn record_solve(&self, record: SolveRecord) {
        if record.recoveries > 0 {
            self.recoveries
                .fetch_add(record.recoveries as u64, Ordering::Relaxed);
        }
        if record.stiff_fallbacks > 0 {
            self.stiff_fallbacks
                .fetch_add(record.stiff_fallbacks as u64, Ordering::Relaxed);
        }
        self.solves.lock().unwrap().push(record);
    }
}

/// The tolerances in force after `round` halvings of rtol/atol and the
/// marginality margin.
fn tightened(tol: &Tolerances, round: u32) -> Tolerances {
    let f = 0.5_f64.powi(i32::try_from(round).unwrap_or(i32::MAX));
    let mut t = *tol;
    t.ode = t.ode.with_tolerances(t.ode.rtol * f, t.ode.atol * f);
    t.margin *= f;
    t
}

/// Cache key of an initial occupancy: its exact bit pattern. Two vectors
/// share a trajectory iff every component is bitwise equal — anything
/// looser would silently mix trajectories of different initial states.
fn occupancy_key(m0: &Occupancy) -> Vec<u64> {
    m0.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mfcsl::parse_formula;

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

    fn m0() -> Occupancy {
        Occupancy::new(vec![0.9, 0.1]).unwrap()
    }

    #[test]
    fn session_is_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<CheckSession<'_>>();
    }

    #[test]
    fn session_matches_uncached_checker() {
        let model = sis();
        let session = CheckSession::new(&model);
        let checker = Checker::new(&model);
        let psis = [
            parse_formula("E{>=0.1}[ infected ]").unwrap(),
            parse_formula("EP{>0.5}[ healthy U[0,50] infected ]").unwrap(),
            parse_formula("ES{>0.45}[ infected ]").unwrap(),
        ];
        for psi in &psis {
            // A cold entry solves to the same horizon the uncached checker
            // uses, so the base verdicts are identical (not merely close).
            // The session additionally refines marginal verdicts, which the
            // uncached checker never does; that difference shows up only in
            // the refinement record, never in holds/marginal.
            let fresh = CheckSession::new(&model);
            let plain = checker.check(psi, &m0()).unwrap();
            let cached = fresh.check(psi, &m0()).unwrap();
            assert_eq!(cached.holds(), plain.holds());
            assert_eq!(cached.is_marginal(), plain.is_marginal());
            assert_eq!(plain.refinement(), None);
            assert_eq!(cached.refinement().is_some(), plain.is_marginal());
            // The shared warm session at least agrees on the verdict.
            let v = session.check(psi, &m0()).unwrap();
            assert_eq!(v.holds(), plain.holds());
            // Asking again is served from the caches, identically.
            assert_eq!(session.check(psi, &m0()).unwrap(), v);
        }
    }

    #[test]
    fn marginal_verdict_is_refined_to_budget() {
        let model = sis();
        let session = CheckSession::new(&model);
        // E{>=0.1} at m0 = [0.9, 0.1]: the operator value is exactly the
        // threshold, so no tolerance tightening can ever decide it.
        let psi = parse_formula("E{>=0.1}[ infected ]").unwrap();
        let v = session.check(&psi, &m0()).unwrap();
        assert!(v.holds());
        assert!(v.is_marginal());
        let r = v.refinement().expect("marginal verdicts carry a record");
        assert_eq!(r.rounds, MAX_REFINE_ROUNDS);
        assert!(!r.decided);
        // Three halvings of the default 1e-6 margin.
        assert!((r.final_margin - 1.25e-7).abs() < 1e-20);
        let stats = session.stats();
        assert_eq!(stats.refined_verdicts, 1);
        assert_eq!(stats.refine_rounds, u64::from(MAX_REFINE_ROUNDS));
        // Refinement solves are recorded but don't count as fresh solves.
        assert_eq!(stats.trajectory_solves, 1);
        assert_eq!(
            stats
                .solves
                .iter()
                .filter(|s| s.kind == SolveKind::Refinement)
                .count(),
            MAX_REFINE_ROUNDS as usize
        );
    }

    #[test]
    fn refinement_decides_a_near_threshold_verdict() {
        let model = sis();
        let session = CheckSession::new(&model);
        // Gap to the threshold is 8e-7: inside the default 1e-6 margin
        // (marginal), outside the round-1 margin of 5e-7 (decided).
        let psi = parse_formula("E{>=0.0999992}[ infected ]").unwrap();
        let v = session.check(&psi, &m0()).unwrap();
        assert!(v.holds());
        assert!(!v.is_marginal());
        let r = v.refinement().expect("refined verdicts carry a record");
        assert_eq!(r.rounds, 1);
        assert!(r.decided);
        let stats = session.stats();
        assert_eq!(stats.refined_verdicts, 1);
        assert_eq!(stats.refine_rounds, 1);
    }

    #[test]
    fn non_marginal_verdicts_skip_refinement() {
        let model = sis();
        let session = CheckSession::new(&model);
        let psi = parse_formula("E{<0.5}[ infected ]").unwrap();
        let v = session.check(&psi, &m0()).unwrap();
        assert!(v.holds());
        assert_eq!(v.refinement(), None);
        let stats = session.stats();
        assert_eq!(stats.refined_verdicts, 0);
        assert_eq!(stats.refine_rounds, 0);
    }

    #[test]
    fn one_trajectory_for_a_batch() {
        let model = sis();
        let session = CheckSession::new(&model);
        let psis = vec![
            parse_formula("E{<0.2}[ infected ]").unwrap(),
            parse_formula("EP{>0}[ tt U[0,2] infected ]").unwrap(),
            parse_formula("EP{>0}[ tt U[0,5] infected ]").unwrap(),
        ];
        session.check_all(&psis, &m0()).unwrap();
        let stats = session.stats();
        // The batch horizon (5) is computed up front: one solve, no
        // growth when the individual formulas are then checked.
        assert_eq!(stats.trajectory_solves, 1);
        assert_eq!(stats.trajectory_extensions, 0);
        assert_eq!(stats.solves.len(), 1);
        assert_eq!(stats.solves[0].kind, SolveKind::Fresh);
        assert!(stats.solves[0].t_to >= 5.0);
        assert!(stats.solves[0].ode_steps > 0);
    }

    #[test]
    fn parallel_batch_matches_serial_batch_bitwise() {
        let model = sis();
        let psis = vec![
            parse_formula("E{<0.2}[ infected ]").unwrap(),
            parse_formula("EP{>0}[ tt U[0,2] infected ]").unwrap(),
            parse_formula("EP{>0}[ tt U[0,5] infected ]").unwrap(),
            parse_formula("ES{>0.45}[ infected ]").unwrap(),
            parse_formula("EP{>0.5}[ healthy U[0,5] infected ]").unwrap(),
        ];
        let serial = CheckSession::new(&model);
        let expected = serial.check_all(&psis, &m0()).unwrap();
        for threads in [1, 2, 8] {
            let pool = Arc::new(ThreadPool::new(threads));
            let session = CheckSession::new(&model).with_pool(pool);
            let got = session.check_all(&psis, &m0()).unwrap();
            assert_eq!(got, expected, "threads = {threads}");
            // Same solve discipline as the serial batch.
            let stats = session.stats();
            assert_eq!(stats.trajectory_solves, 1);
            assert_eq!(stats.trajectory_extensions, 0);
        }
    }

    #[test]
    fn parallel_csat_sweep_matches_serial() {
        let model = sis();
        let psi = parse_formula("E{<0.3}[ infected ]").unwrap();
        let m0s: Vec<Occupancy> = (1..8)
            .map(|i| Occupancy::new(vec![1.0 - 0.1 * f64::from(i), 0.1 * f64::from(i)]).unwrap())
            .collect();
        let serial = CheckSession::new(&model);
        let expected = serial.csat_sweep(&psi, &m0s, 10.0).unwrap();
        let pool = Arc::new(ThreadPool::new(8));
        let session = CheckSession::new(&model).with_pool(pool);
        let got = session.csat_sweep(&psi, &m0s, 10.0).unwrap();
        assert_eq!(expected.len(), got.len());
        for (a, b) in expected.iter().zip(&got) {
            assert_eq!(a.intervals().len(), b.intervals().len());
            for (ia, ib) in a.intervals().iter().zip(b.intervals()) {
                assert_eq!(ia.lo().value.to_bits(), ib.lo().value.to_bits());
                assert_eq!(ia.hi().value.to_bits(), ib.hi().value.to_bits());
            }
        }
        // One trajectory per occupancy, regardless of scheduling.
        assert_eq!(session.stats().trajectory_solves, m0s.len() as u64);
    }

    #[test]
    fn growing_horizons_extend_in_place() {
        let model = sis();
        let session = CheckSession::new(&model);
        let short = parse_formula("EP{>0}[ tt U[0,2] infected ]").unwrap();
        let long = parse_formula("EP{>0}[ tt U[0,8] infected ]").unwrap();
        session.check(&short, &m0()).unwrap();
        session.check(&long, &m0()).unwrap();
        session.check(&short, &m0()).unwrap();
        let stats = session.stats();
        assert_eq!(stats.trajectory_solves, 1);
        assert_eq!(stats.trajectory_extensions, 1);
        assert_eq!(stats.trajectory_reuses, 1);
        assert_eq!(stats.solves.len(), 2);
        assert_eq!(stats.solves[1].kind, SolveKind::Extension);
        assert_eq!(stats.solves[1].t_from, 2.0);
        assert_eq!(stats.solves[1].t_to, 8.0);
    }

    #[test]
    fn repeated_subformulas_hit_the_memo_tables() {
        let model = sis();
        let session = CheckSession::new(&model);
        let psi = parse_formula("EP{>0}[ tt U[0,2] infected ]").unwrap();
        session.check(&psi, &m0()).unwrap();
        let cold = session.stats().cache;
        assert_eq!(cold.curve_hits, 0);
        assert!(cold.curve_misses > 0);
        session.check(&psi, &m0()).unwrap();
        let warm = session.stats().cache;
        assert!(warm.curve_hits > 0, "{warm:?}");
        assert_eq!(warm.curve_misses, cold.curve_misses);
    }

    #[test]
    fn stationary_regime_computed_once() {
        let model = sis();
        let session = CheckSession::new(&model);
        let a = parse_formula("ES{>0.45}[ infected ]").unwrap();
        let b = parse_formula("ES{<0.55}[ infected ]").unwrap();
        assert!(session.check(&a, &m0()).unwrap().holds());
        assert!(session.check(&b, &m0()).unwrap().holds());
        let stats = session.stats();
        assert_eq!(stats.regime_solves, 1);
        assert_eq!(stats.regime_reuses, 1);
        // The one settle solve to t = 200 is counted apart from the
        // trajectory integrations.
        let settle = crate::meanfield::solve(&model, &m0(), 200.0, &Default::default()).unwrap();
        let settle_evals = settle.trajectory().stats().rhs_evals;
        assert_eq!(stats.regime_rhs_evals, settle_evals as u64);
    }

    #[test]
    fn distinct_occupancies_get_distinct_entries() {
        let model = sis();
        let session = CheckSession::new(&model);
        let psi = parse_formula("E{>=0.1}[ infected ]").unwrap();
        session.check(&psi, &m0()).unwrap();
        session
            .check(&psi, &Occupancy::new(vec![0.5, 0.5]).unwrap())
            .unwrap();
        assert_eq!(session.stats().trajectory_solves, 2);
        session.clear();
        session.check(&psi, &m0()).unwrap();
        assert_eq!(session.stats().trajectory_solves, 3);
    }

    #[test]
    fn prewarmed_sweep_matches_per_occupancy_csat_bitwise() {
        let model = sis();
        let psi = parse_formula("E{<0.3}[ infected ]").unwrap();
        let m0s: Vec<Occupancy> = (1..6)
            .map(|i| Occupancy::new(vec![1.0 - 0.1 * f64::from(i), 0.1 * f64::from(i)]).unwrap())
            .collect();
        // One occupancy at a time, scalar solves only.
        let scalar = CheckSession::new(&model);
        let expected: Vec<_> = m0s
            .iter()
            .map(|m0| scalar.csat(&psi, m0, 10.0).unwrap())
            .collect();
        assert_eq!(scalar.stats().batch_prewarmed, 0);
        // The sweep entry point prewarms all five lanes with one batched
        // drive, then answers from the warmed cache — bitwise identically.
        let swept = CheckSession::new(&model);
        let got = swept.csat_sweep(&psi, &m0s, 10.0).unwrap();
        for (a, b) in expected.iter().zip(&got) {
            assert_eq!(a.intervals().len(), b.intervals().len());
            for (ia, ib) in a.intervals().iter().zip(b.intervals()) {
                assert_eq!(ia.lo().value.to_bits(), ib.lo().value.to_bits());
                assert_eq!(ia.hi().value.to_bits(), ib.hi().value.to_bits());
            }
        }
        let stats = swept.stats();
        assert_eq!(stats.batch_prewarmed, m0s.len() as u64);
        assert_eq!(stats.trajectory_solves, m0s.len() as u64);
        // Every fresh solve rode the batch, with its lane recorded, and
        // per-lane solver statistics mirror the scalar path exactly.
        let batched: Vec<_> = stats
            .solves
            .iter()
            .filter(|s| s.kind == SolveKind::Fresh)
            .collect();
        assert_eq!(batched.len(), m0s.len());
        for (lane, record) in batched.iter().enumerate() {
            assert_eq!(record.batch_lane, Some(lane));
            let scalar_record = &scalar.stats().solves[lane];
            assert_eq!(record.ode_steps, scalar_record.ode_steps);
            assert_eq!(record.rejected_steps, scalar_record.rejected_steps);
            assert_eq!(record.rhs_evals, scalar_record.rhs_evals);
        }
    }

    #[test]
    fn prewarm_skips_cached_duplicate_and_malformed_lanes() {
        let model = sis();
        let session = CheckSession::new(&model);
        let psi = parse_formula("E{<0.3}[ infected ]").unwrap();
        // Seed the cache with one scalar entry.
        session.csat(&psi, &m0(), 10.0).unwrap();
        let other = Occupancy::new(vec![0.5, 0.5]).unwrap();
        let third = Occupancy::new(vec![0.7, 0.3]).unwrap();
        let wrong_len = Occupancy::new(vec![0.2, 0.3, 0.5]).unwrap();
        let lanes = vec![
            m0(),          // cached — skipped
            other.clone(), // missing
            other,         // duplicate — deduped
            wrong_len,     // wrong dimension — left to the scalar path
            third,         // missing
        ];
        assert_eq!(session.prewarm(&lanes, 10.0).unwrap(), 2);
        assert_eq!(session.stats().batch_prewarmed, 2);
        // Everything present now: nothing left to warm.
        assert_eq!(session.prewarm(&lanes, 10.0).unwrap(), 0);
        // Fewer than two missing lanes: not worth a batched drive.
        let fresh = CheckSession::new(&model);
        assert_eq!(fresh.prewarm(std::slice::from_ref(&m0()), 10.0).unwrap(), 0);
        // Invalid horizons are the scalar path's error to report.
        assert_eq!(fresh.prewarm(&lanes, -1.0).unwrap(), 0);
        assert_eq!(fresh.prewarm(&lanes, f64::NAN).unwrap(), 0);
    }

    #[test]
    fn prewarm_declines_under_fault_injection() {
        use mfcsl_ode::{FaultMode, FaultPlan};
        let model = sis();
        let checker =
            Checker::new(&model).with_fault_plan(FaultPlan::new(FaultMode::Reject, 5000, 42));
        let session = CheckSession::from_checker(checker);
        let m0s = vec![m0(), Occupancy::new(vec![0.5, 0.5]).unwrap()];
        // The fault stream is defined over scalar RHS calls; prewarm
        // refuses so chaos semantics stay exactly as without it.
        assert_eq!(session.prewarm(&m0s, 10.0).unwrap(), 0);
        let psi = parse_formula("E{<0.9}[ infected ]").unwrap();
        session.csat_sweep(&psi, &m0s, 5.0).unwrap();
        let stats = session.stats();
        assert_eq!(stats.batch_prewarmed, 0);
        assert_eq!(stats.trajectory_solves, 2);
        assert!(stats.solves.iter().all(|s| s.batch_lane.is_none()));
    }

    #[test]
    fn shared_mode_prewarm_still_answers_the_sweep() {
        let model = sis();
        let psi = parse_formula("E{<0.3}[ infected ]").unwrap();
        let m0s: Vec<Occupancy> = (1..5)
            .map(|i| Occupancy::new(vec![1.0 - 0.1 * f64::from(i), 0.1 * f64::from(i)]).unwrap())
            .collect();
        let shared = CheckSession::new(&model).with_batch_mode(BatchMode::Shared);
        assert_eq!(shared.batch_mode(), BatchMode::Shared);
        let got = shared.csat_sweep(&psi, &m0s, 10.0).unwrap();
        assert_eq!(got.len(), m0s.len());
        let stats = shared.stats();
        assert_eq!(stats.batch_prewarmed, m0s.len() as u64);
        // The shared controller is within-tolerance, not bitwise: compare
        // interval endpoints against the scalar path loosely.
        let scalar = CheckSession::new(&model);
        for (m0, b) in m0s.iter().zip(&got) {
            let a = scalar.csat(&psi, m0, 10.0).unwrap();
            assert_eq!(a.intervals().len(), b.intervals().len());
            for (ia, ib) in a.intervals().iter().zip(b.intervals()) {
                assert!((ia.lo().value - ib.lo().value).abs() < 1e-5);
                assert!((ia.hi().value - ib.hi().value).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn csat_via_session_matches_uncached() {
        let model = sis();
        let session = CheckSession::new(&model);
        let checker = Checker::new(&model);
        let psi = parse_formula("E{<0.3}[ infected ]").unwrap();
        let cached = session.csat(&psi, &m0(), 20.0).unwrap();
        let plain = checker.csat(&psi, &m0(), 20.0).unwrap();
        assert_eq!(cached.intervals().len(), plain.intervals().len());
        for (a, b) in cached.intervals().iter().zip(plain.intervals()) {
            assert_eq!(a.lo().value.to_bits(), b.lo().value.to_bits());
            assert_eq!(a.hi().value.to_bits(), b.hi().value.to_bits());
        }
        assert!(session.csat(&psi, &m0(), -1.0).is_err());
    }

    #[test]
    fn restored_entries_answer_without_solving_bitwise_identically() {
        let model = sis();
        let warm = CheckSession::new(&model);
        let psis = [
            parse_formula("E{<0.4}[ infected ]").unwrap(),
            parse_formula("EP{<0.5}[ healthy U[0,1] infected ]").unwrap(),
            parse_formula("ES{>0.45}[ infected ]").unwrap(),
        ];
        let expected: Vec<Verdict> = psis
            .iter()
            .map(|psi| warm.check(psi, &m0()).unwrap())
            .collect();
        let exported = warm.export_entries();
        assert_eq!(exported.len(), 1);
        let entry = &exported[0];
        assert!(entry.regime.is_some(), "the ES query computed a regime");
        assert!(!entry.cache.state_keys.is_empty());
        assert!(!entry.cache.sets.is_empty());
        assert!(!entry.cache.curves.is_empty());

        let restored = CheckSession::new(&model);
        assert!(restored
            .restore_entry(&entry.m0, entry.trajectory.clone(), &entry.cache)
            .unwrap());
        let regime = entry.regime.as_ref().unwrap();
        assert!(restored
            .restore_regime(&entry.m0, &regime.distribution, regime.settle_time)
            .unwrap());

        for (psi, want) in psis.iter().zip(&expected) {
            assert_eq!(restored.check(psi, &m0()).unwrap(), *want);
        }
        let stats = restored.stats();
        assert_eq!(
            stats.trajectory_solves, 0,
            "trajectory came from the snapshot"
        );
        assert_eq!(stats.regime_solves, 0, "regime came from the snapshot");
        assert_eq!(stats.trajectory_restores, 1);
        assert!(stats.cache.set_hits > 0 || stats.cache.curve_hits > 0);
    }
}
