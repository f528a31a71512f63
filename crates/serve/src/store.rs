//! Warm session reuse: the daemon's `(model, params, tolerances)` →
//! [`CheckSession`] store.
//!
//! A [`CheckSession`] borrows its [`LocalModel`], which works for the CLI
//! (one model, one invocation) but not for a daemon whose sessions must
//! outlive any single request. [`WarmSession`] closes that gap: it owns the
//! instantiated model in an [`Arc`] (stable heap address, no aliasing claims
//! on moves) and pairs it with a session whose lifetime is unsafely erased
//! to `'static`. The pairing is sound because the session is dropped
//! strictly before the model (field declaration order) and because
//! `WarmSession` only ever exposes delegating methods — the `'static`
//! session can never be observed or moved out, so no reference outlives the
//! allocation.
//!
//! The store is bounded: at most `max_sessions` warm sessions are retained,
//! with least-recently-used eviction, so clients posting ever-new parameter
//! values cannot grow daemon memory without limit.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mfcsl_core::mfcsl::{
    CheckSession, Checker, EngineStats, MfFormula, SessionEntryExport, Verdict,
};
use mfcsl_core::{CoreError, FaultPlan, LocalModel, Occupancy};
use mfcsl_csl::{SatCacheExport, Tolerances};
use mfcsl_ode::{SolveStats, Trajectory};
use mfcsl_pool::ThreadPool;
use mfcsl_smc::SmcSession;

use crate::metrics::SnapshotCounters;
use crate::registry::ModelRegistry;
use crate::snapshot::{file_name, fnv1a64, RegimeSnapshot, SessionSnapshot, SnapshotEntry};

/// Consecutive engine failures after which a session is quarantined:
/// dropped from the store so the next request rebuilds it from scratch
/// with fresh caches.
pub const QUARANTINE_THRESHOLD: u32 = 3;

/// The statistical-lane arm of a [`SessionKey`]: a `"mode": "simulate"`
/// request is keyed by its finite population and sampling parameters, so a
/// simulated session can never alias — or borrow the caches of — the
/// mean-field session for the same model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimKey {
    /// Finite population size `N`.
    pub population: u64,
    /// Requested replication count (the fixed-sample batch size).
    pub replications: u64,
    /// Base seed of the deterministic per-replication seed stream.
    pub seed: u64,
}

/// Identity of a warm session: which model, at which parameter values,
/// under which tolerance preset.
///
/// Parameter values are keyed by their `f64` bit patterns — the same
/// convention the engine uses for occupancy keys — so `0.1` and a value
/// that merely prints like `0.1` are distinct keys and results stay
/// bitwise reproducible.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey {
    /// Registry name of the model.
    pub model: String,
    /// Sorted `(name, value bits)` parameter overrides.
    pub params: Vec<(String, u64)>,
    /// Fast (loose) tolerance preset instead of the default.
    pub fast: bool,
    /// Seeded fault-injection plan (chaos testing only). Part of the key so
    /// a faulted request can never poison — or borrow the caches of — a
    /// healthy session for the same model.
    pub fault: Option<FaultPlan>,
    /// Statistical-lane parameters (`"mode": "simulate"` requests only).
    /// `None` for mean-field sessions.
    pub sim: Option<SimKey>,
}

impl SessionKey {
    /// Builds the key for a mean-field request.
    #[must_use]
    pub fn new(
        model: &str,
        overrides: &BTreeMap<String, f64>,
        fast: bool,
        fault: Option<FaultPlan>,
    ) -> SessionKey {
        SessionKey {
            model: model.to_string(),
            params: overrides
                .iter()
                .map(|(k, v)| (k.clone(), v.to_bits()))
                .collect(),
            fast,
            fault,
            sim: None,
        }
    }
}

/// An owned model plus a checking session over it, safe to keep warm across
/// requests and to share between worker threads.
///
/// # Safety invariants
///
/// * `session` is declared before `_model`, so it drops first;
/// * the model lives in an [`Arc`] allocation whose address is stable and —
///   unlike a `Box`, which asserts unique (`noalias`) access to its payload
///   every time it moves — carries no aliasing claims when the `Arc` handle
///   itself is moved, so the derived `'static` reference stays valid even as
///   the struct moves;
/// * the model is never mutated or replaced, and the `Arc` is never cloned
///   out of the struct;
/// * no method returns the session (or anything borrowing it with the
///   erased lifetime) — only owned results cross the boundary.
pub struct WarmSession {
    backend: Backend,
    _model: Arc<LocalModel>,
}

/// Which checking engine a warm session drives: the mean-field limit
/// (memoizing [`CheckSession`]) or the finite-`N` statistical lane
/// (sampled-batch [`SmcSession`]). Both borrow the owned model under the
/// same erased-lifetime invariants.
enum Backend {
    MeanField(Box<CheckSession<'static>>),
    Simulate(Box<SmcSession<'static>>),
}

impl std::fmt::Debug for WarmSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmSession").finish_non_exhaustive()
    }
}

impl WarmSession {
    /// Builds a warm session over an owned model, optionally wired with a
    /// fault-injection plan (chaos testing only).
    #[must_use]
    pub fn new(
        model: LocalModel,
        fast: bool,
        fault: Option<FaultPlan>,
        pool: Arc<ThreadPool>,
    ) -> WarmSession {
        let model = Arc::new(model);
        // SAFETY: the Arc's allocation outlives the session (drop order:
        // `session` first) and is never moved out of or mutated, and moving
        // the Arc handle makes no aliasing claims on the payload; see the
        // struct-level invariants.
        let model_ref: &'static LocalModel = unsafe { &*Arc::as_ptr(&model) };
        let tolerances = if fast {
            Tolerances::fast()
        } else {
            Tolerances::default()
        };
        let mut checker = Checker::with_tolerances(model_ref, tolerances);
        if let Some(plan) = fault {
            checker = checker.with_fault_plan(plan);
        }
        let session = CheckSession::from_checker(checker).with_pool(pool);
        WarmSession {
            backend: Backend::MeanField(Box::new(session)),
            _model: model,
        }
    }

    /// Builds a warm statistical (SMC) session over an owned model: the
    /// `"mode": "simulate"` counterpart of [`WarmSession::new`], keeping its
    /// memoized sampled-path batches warm across requests under the same
    /// erased-lifetime invariants.
    ///
    /// # Errors
    ///
    /// Propagates [`SmcSession::new`]'s option validation.
    pub fn new_simulating(
        model: LocalModel,
        options: mfcsl_smc::SmcOptions,
    ) -> Result<WarmSession, CoreError> {
        let model = Arc::new(model);
        // SAFETY: same invariants as `new` — the Arc's allocation outlives
        // the session and is never moved out of or mutated.
        let model_ref: &'static LocalModel = unsafe { &*Arc::as_ptr(&model) };
        let session = SmcSession::new(model_ref, options)?;
        Ok(WarmSession {
            backend: Backend::Simulate(Box::new(session)),
            _model: model,
        })
    }

    /// The mean-field engine, or a structured error on a simulate session
    /// (unreachable through the daemon: routing is by key, and a `sim` key
    /// always dispatches to [`WarmSession::simulate_all`]).
    fn meanfield(&self) -> Result<&CheckSession<'static>, CoreError> {
        match &self.backend {
            Backend::MeanField(session) => Ok(session),
            Backend::Simulate(_) => Err(CoreError::InvalidArgument(
                "this session is a statistical (simulate) session".into(),
            )),
        }
    }

    /// Checks a batch of formulas against one initial occupancy, sharing
    /// the session's caches. Delegates to [`CheckSession::check_all`], so a
    /// batch posted to the daemon follows the exact same horizon discipline
    /// as the offline `mfcsl check` command — verdicts are bitwise
    /// identical.
    ///
    /// # Errors
    ///
    /// Propagates checking failures.
    pub fn check_all(&self, psis: &[MfFormula], m0: &Occupancy) -> Result<Vec<Verdict>, CoreError> {
        self.meanfield()?.check_all(psis, m0)
    }

    /// Estimates a batch of formulas at finite `N` on the statistical
    /// backend, reusing the session's memoized sampled-path batches.
    /// Delegates to [`SmcSession::check_all`], so daemon simulate verdicts
    /// are bitwise identical to the offline `mfcsl simulate` command.
    ///
    /// # Errors
    ///
    /// Propagates estimation failures, and rejects mean-field sessions.
    pub fn simulate_all(
        &self,
        psis: &[MfFormula],
        m0: &Occupancy,
    ) -> Result<Vec<mfcsl_smc::SmcVerdict>, CoreError> {
        match &self.backend {
            Backend::Simulate(session) => session.check_all(psis, m0),
            Backend::MeanField(_) => Err(CoreError::InvalidArgument(
                "this session is a mean-field session".into(),
            )),
        }
    }

    /// The statistical backend's counters, when this is a simulate session.
    #[must_use]
    pub fn smc_stats(&self) -> Option<mfcsl_smc::SmcStats> {
        match &self.backend {
            Backend::Simulate(session) => Some(session.stats()),
            Backend::MeanField(_) => None,
        }
    }

    /// Solves the trajectories for a sweep of initial occupancies with one
    /// batched Dopri5 drive, so later checks find their trajectory warm.
    /// Delegates to [`CheckSession::prewarm`]; the per-lane batch controller
    /// keeps every cached trajectory bitwise identical to scalar solving,
    /// so prewarmed daemon verdicts stay bitwise identical to offline ones.
    /// Returns the number of trajectory entries created (owned data only —
    /// nothing borrows the erased-lifetime session).
    ///
    /// # Errors
    ///
    /// Propagates engine failures; individual diverging lanes are skipped,
    /// not errors.
    pub fn prewarm(&self, m0s: &[Occupancy], horizon: f64) -> Result<usize, CoreError> {
        self.meanfield()?.prewarm(m0s, horizon)
    }

    /// Snapshot of the session's engine counters (zero for simulate
    /// sessions, whose counters live in [`WarmSession::smc_stats`]).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        match &self.backend {
            Backend::MeanField(session) => session.stats(),
            Backend::Simulate(_) => EngineStats::default(),
        }
    }

    /// Owned copies of every base trajectory entry, for snapshot
    /// persistence. Delegates to [`CheckSession::export_trajectories`]
    /// (owned data only — nothing borrows the erased-lifetime session).
    #[must_use]
    pub fn export_trajectories(&self) -> Vec<(Occupancy, Trajectory)> {
        match &self.backend {
            Backend::MeanField(session) => session.export_trajectories(),
            Backend::Simulate(_) => Vec::new(),
        }
    }

    /// Owned copies of every warm entry — trajectory, stationary regime,
    /// sat-cache — for snapshot persistence. Delegates to
    /// [`CheckSession::export_entries`] (owned data only).
    #[must_use]
    pub fn export_entries(&self) -> Vec<SessionEntryExport> {
        match &self.backend {
            Backend::MeanField(session) => session.export_entries(),
            Backend::Simulate(_) => Vec::new(),
        }
    }

    /// Installs a snapshot-restored trajectory as the warm entry for `m0`.
    /// Delegates to [`CheckSession::restore_trajectory`], which enforces
    /// the dimension/origin/first-knot bitwise checks.
    ///
    /// # Errors
    ///
    /// Propagates the engine's integrity-check failures.
    pub fn restore_trajectory(
        &self,
        m0: &Occupancy,
        trajectory: Trajectory,
    ) -> Result<bool, CoreError> {
        self.meanfield()?.restore_trajectory(m0, trajectory)
    }

    /// Installs a snapshot-restored entry (trajectory plus sat-cache) as
    /// the warm entry for `m0`. Delegates to [`CheckSession::restore_entry`].
    ///
    /// # Errors
    ///
    /// Propagates the engine's integrity-check failures.
    pub fn restore_entry(
        &self,
        m0: &Occupancy,
        trajectory: Trajectory,
        cache: &SatCacheExport,
    ) -> Result<bool, CoreError> {
        self.meanfield()?.restore_entry(m0, trajectory, cache)
    }

    /// Installs a snapshot-restored stationary regime for `m0`, rebuilding
    /// the frozen chain from the model. Delegates to
    /// [`CheckSession::restore_regime`].
    ///
    /// # Errors
    ///
    /// Propagates the engine's validation failures.
    pub fn restore_regime(
        &self,
        m0: &Occupancy,
        distribution: &[f64],
        settle_time: Option<f64>,
    ) -> Result<bool, CoreError> {
        self.meanfield()?
            .restore_regime(m0, distribution, settle_time)
    }
}

/// One retained session plus its recency stamp for LRU eviction.
#[derive(Debug)]
struct Entry {
    session: Arc<WarmSession>,
    last_used: u64,
    /// Consecutive engine failures observed on this session; any success
    /// resets it. Reaching [`QUARANTINE_THRESHOLD`] quarantines the session.
    consecutive_failures: u32,
    /// Fingerprint of the session's warm state as of the last snapshot
    /// write (0 = never written). Gates the write-behind in
    /// [`SessionStore::record_success`]: cache-hit requests leave the
    /// counters — and therefore the fingerprint — untouched, so only
    /// requests that actually grew the warm state pay a serialization.
    saved_fingerprint: u64,
}

/// Fingerprint of the warm state a snapshot would capture: the engine
/// counters that move exactly when the persisted artifacts (trajectories,
/// regimes, sat-cache) change. Checked cheaply on every success instead of
/// diffing the artifacts themselves.
fn warm_fingerprint(stats: &EngineStats) -> u64 {
    let mut bytes = [0u8; 72];
    for (slot, v) in [
        stats.trajectory_solves,
        stats.trajectory_extensions,
        stats.trajectory_restores,
        stats.regime_solves,
        stats.batch_prewarmed,
        stats.cache.set_misses,
        stats.cache.curve_misses,
        stats.cache.cached_sets as u64,
        stats.cache.cached_curves as u64,
    ]
    .into_iter()
    .enumerate()
    {
        bytes[slot * 8..slot * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }
    // 0 is the "never written" sentinel; FNV of any input is nonzero in
    // practice, but clamp anyway so a pathological collision can't disable
    // persistence for a session.
    fnv1a64(&bytes).max(1)
}

/// Everything guarded by the store's one mutex.
#[derive(Debug, Default)]
struct StoreInner {
    sessions: HashMap<SessionKey, Entry>,
    /// Monotonic logical clock stamping `last_used`.
    clock: u64,
    /// Sessions evicted so far.
    evicted: u64,
    /// Sessions quarantined (dropped after repeated engine failures).
    quarantined: u64,
    /// Engine counters of evicted sessions, folded in at eviction time so
    /// `/metrics` totals stay monotonic across evictions.
    retired: EngineStats,
    /// Warm-state persistence counters for `/metrics`.
    snapshots: SnapshotCounters,
}

/// The daemon-wide session store. `get_or_create` is the only entry point;
/// it reports whether the request hit a warm session. The store holds at
/// most `max_sessions` sessions, evicting the least recently used one to
/// make room — in-flight requests keep their `Arc` to an evicted session,
/// so eviction never invalidates a running check.
#[derive(Debug)]
pub struct SessionStore {
    inner: Mutex<StoreInner>,
    pool: Arc<ThreadPool>,
    max_sessions: usize,
    /// Warm-state snapshot directory. When set, sessions are persisted on
    /// eviction and on [`SessionStore::save_all`] (graceful drain), and
    /// [`SessionStore::load_state_dir`] restores them at startup.
    state_dir: Option<PathBuf>,
}

impl SessionStore {
    /// Creates an empty store whose sessions all share `pool`, retaining at
    /// most `max_sessions` warm sessions (a value of `0` is treated as 1).
    /// With a `state_dir`, warm state persists across restarts (the
    /// directory is created if missing; creation failure just disables
    /// persistence — serving must not die over a read-only disk).
    #[must_use]
    pub fn new(
        pool: Arc<ThreadPool>,
        max_sessions: usize,
        state_dir: Option<PathBuf>,
    ) -> SessionStore {
        let state_dir = state_dir.filter(|dir| std::fs::create_dir_all(dir).is_ok());
        SessionStore {
            inner: Mutex::new(StoreInner::default()),
            pool,
            max_sessions: max_sessions.max(1),
            state_dir,
        }
    }

    /// Fetches the warm session for `key`, instantiating the model (with
    /// the key's parameter overrides) on first use. The second component is
    /// `true` when the session was already warm.
    ///
    /// Instantiation happens under the store lock: it only compiles rate
    /// expressions (no solving), and holding the lock means concurrent
    /// first requests for one key cannot race two cold sessions into
    /// existence — all but the first would waste their trajectory caches.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for unknown models or bad
    /// parameter overrides.
    pub fn get_or_create(
        &self,
        registry: &ModelRegistry,
        key: &SessionKey,
    ) -> Result<(Arc<WarmSession>, bool), CoreError> {
        let mut inner = self.lock();
        inner.clock += 1;
        let now = inner.clock;
        if let Some(existing) = inner.sessions.get_mut(key) {
            existing.last_used = now;
            return Ok((Arc::clone(&existing.session), true));
        }
        let file = registry
            .get(&key.model)
            .ok_or_else(|| CoreError::InvalidArgument(format!("unknown model `{}`", key.model)))?;
        let overrides: BTreeMap<String, f64> = key
            .params
            .iter()
            .map(|(k, bits)| (k.clone(), f64::from_bits(*bits)))
            .collect();
        let model = file.instantiate_with(&overrides)?;
        let session = match key.sim {
            None => Arc::new(WarmSession::new(
                model,
                key.fast,
                key.fault,
                Arc::clone(&self.pool),
            )),
            Some(sim) => {
                let mut options = mfcsl_smc::SmcOptions::new(
                    usize::try_from(sim.population).unwrap_or(usize::MAX),
                );
                options.replications = usize::try_from(sim.replications).unwrap_or(usize::MAX);
                options.seed = sim.seed;
                // Replications fan out over the pool's lane count; the
                // per-index seed stream keeps verdicts identical at any
                // thread count, so this is a throughput knob only.
                options.threads = self.pool.stats().threads.max(1);
                Arc::new(WarmSession::new_simulating(model, options)?)
            }
        };
        if inner.sessions.len() >= self.max_sessions {
            self.evict_lru(&mut inner);
        }
        inner.sessions.insert(
            key.clone(),
            Entry {
                session: Arc::clone(&session),
                last_used: now,
                consecutive_failures: 0,
                saved_fingerprint: 0,
            },
        );
        Ok((session, false))
    }

    /// Records an engine failure on `key`'s session. After
    /// [`QUARANTINE_THRESHOLD`] consecutive failures the session is
    /// quarantined: removed from the store (its counters fold into the
    /// retired totals) so the next request for the same key rebuilds it
    /// with fresh caches. Returns `true` when this call quarantined it.
    pub fn record_failure(&self, key: &SessionKey) -> bool {
        let mut inner = self.lock();
        let Some(entry) = inner.sessions.get_mut(key) else {
            return false;
        };
        entry.consecutive_failures += 1;
        if entry.consecutive_failures < QUARANTINE_THRESHOLD {
            return false;
        }
        if let Some(entry) = inner.sessions.remove(key) {
            inner.retired.merge(&entry.session.stats());
            inner.quarantined += 1;
        }
        // A quarantined session's caches are suspect; its snapshot must not
        // resurrect them on the next start.
        if let Some(dir) = &self.state_dir {
            let _ = std::fs::remove_file(dir.join(file_name(key)));
        }
        true
    }

    /// Records a successful check on `key`'s session, resetting its
    /// consecutive-failure count — and, with persistence enabled,
    /// write-behind snapshotting the session when this request grew its
    /// warm state. The write happens synchronously (before the response
    /// reaches the client) but outside the store lock, so a SIGKILLed
    /// daemon restarts warm for every key it ever answered, at zero cost
    /// for cache-hit traffic (the fingerprint gate skips those).
    pub fn record_success(&self, key: &SessionKey) {
        let session = {
            let mut inner = self.lock();
            let Some(entry) = inner.sessions.get_mut(key) else {
                return;
            };
            entry.consecutive_failures = 0;
            // Same exclusions as write_snapshot; checked here so excluded
            // sessions don't pay the fingerprint on every request.
            if self.state_dir.is_none() || key.fault.is_some() || key.sim.is_some() {
                return;
            }
            let fingerprint = warm_fingerprint(&entry.session.stats());
            if fingerprint == entry.saved_fingerprint {
                return;
            }
            // The marker advances even if the write below fails: retrying
            // an unwritable disk on every request would turn a full disk
            // into a per-request latency tax. The next state growth (or
            // eviction, or drain) retries naturally.
            entry.saved_fingerprint = fingerprint;
            Arc::clone(&entry.session)
        };
        if self.write_snapshot(key, &session) {
            self.lock().snapshots.saved += 1;
        }
    }

    /// Drops the least recently used session, folding its engine counters
    /// into the retired totals. With persistence enabled, the victim's warm
    /// trajectories are snapshotted first (write-on-evict), so an evicted
    /// key that comes back after a restart still starts warm.
    fn evict_lru(&self, inner: &mut StoreInner) {
        let Some(victim) = inner
            .sessions
            .iter()
            .min_by_key(|(_, entry)| entry.last_used)
            .map(|(key, _)| key.clone())
        else {
            return;
        };
        if let Some(entry) = inner.sessions.remove(&victim) {
            if self.write_snapshot(&victim, &entry.session) {
                inner.snapshots.saved += 1;
            }
            inner.retired.merge(&entry.session.stats());
            inner.evicted += 1;
        }
    }

    /// Persists every live session (graceful drain). Returns how many
    /// snapshots were written.
    pub fn save_all(&self) -> u64 {
        let mut inner = self.lock();
        let keys: Vec<SessionKey> = inner.sessions.keys().cloned().collect();
        let mut saved = 0;
        for key in keys {
            let Some(entry) = inner.sessions.get(&key) else {
                continue;
            };
            if self.write_snapshot(&key, &entry.session) {
                saved += 1;
            }
        }
        inner.snapshots.saved += saved;
        saved
    }

    /// Restores previously persisted sessions, eagerly instantiating their
    /// models so the first request after a restart is a genuine warm hit.
    /// Corrupt, truncated, wrong-version, or stale (model no longer in the
    /// registry, entries that fail the engine's bitwise integrity checks)
    /// snapshots are skipped and counted, never trusted partially.
    pub fn load_state_dir(&self, registry: &ModelRegistry) {
        let Some(dir) = &self.state_dir else {
            return;
        };
        let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
            Ok(iter) => iter
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|ext| ext == "snap"))
                .collect(),
            Err(_) => return,
        };
        paths.sort();
        for path in paths {
            let mut inner = self.lock();
            if inner.sessions.len() >= self.max_sessions {
                break; // respect the cap; remaining snapshots stay on disk
            }
            drop(inner);
            let restored = self.restore_file(registry, &path);
            inner = self.lock();
            match restored {
                Ok((key, session)) => {
                    inner.clock += 1;
                    let now = inner.clock;
                    inner.snapshots.loaded += 1;
                    // The snapshot on disk captures exactly the state just
                    // restored, so mark it saved — a cache-hit first
                    // request after restart must not rewrite it.
                    let saved_fingerprint = warm_fingerprint(&session.stats());
                    inner.sessions.entry(key).or_insert(Entry {
                        session,
                        last_used: now,
                        consecutive_failures: 0,
                        saved_fingerprint,
                    });
                }
                Err(_) => inner.snapshots.rejected += 1,
            }
        }
    }

    /// Decodes one snapshot file into a warm session, enforcing every
    /// integrity check along the way.
    fn restore_file(
        &self,
        registry: &ModelRegistry,
        path: &std::path::Path,
    ) -> Result<(SessionKey, Arc<WarmSession>), String> {
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        let snapshot = SessionSnapshot::decode(&bytes).map_err(|e| e.to_string())?;
        let key = snapshot.key();
        let file = registry
            .get(&key.model)
            .ok_or_else(|| format!("model `{}` no longer registered", key.model))?;
        let overrides: BTreeMap<String, f64> = key
            .params
            .iter()
            .map(|(k, bits)| (k.clone(), f64::from_bits(*bits)))
            .collect();
        let model = file
            .instantiate_with(&overrides)
            .map_err(|e| e.to_string())?;
        let session = Arc::new(WarmSession::new(
            model,
            key.fast,
            None,
            Arc::clone(&self.pool),
        ));
        for entry in &snapshot.entries {
            let m0 = Occupancy::new(entry.m0_bits.iter().map(|&b| f64::from_bits(b)).collect())
                .map_err(|e| e.to_string())?;
            let dim = entry.m0_bits.len();
            let stats = SolveStats {
                accepted: usize::try_from(entry.stats[0]).unwrap_or(usize::MAX),
                rejected: usize::try_from(entry.stats[1]).unwrap_or(usize::MAX),
                rhs_evals: usize::try_from(entry.stats[2]).unwrap_or(usize::MAX),
                recoveries: usize::try_from(entry.stats[3]).unwrap_or(usize::MAX),
                stiff_fallbacks: usize::try_from(entry.stats[4]).unwrap_or(usize::MAX),
            };
            let trajectory = Trajectory::from_flat(
                dim,
                entry.ts_bits.iter().map(|&b| f64::from_bits(b)).collect(),
                entry.ys_bits.iter().map(|&b| f64::from_bits(b)).collect(),
                entry.ds_bits.iter().map(|&b| f64::from_bits(b)).collect(),
                stats,
            )
            .map_err(|e| e.to_string())?;
            session
                .restore_entry(&m0, trajectory, &entry.cache)
                .map_err(|e| e.to_string())?;
            if let Some(regime) = &entry.regime {
                let distribution: Vec<f64> = regime
                    .distribution_bits
                    .iter()
                    .map(|&b| f64::from_bits(b))
                    .collect();
                let settle_time = regime.settle_bits.map(f64::from_bits);
                session
                    .restore_regime(&m0, &distribution, settle_time)
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok((key, session))
    }

    /// Serializes and atomically writes one session's snapshot. Returns
    /// whether a file was written. Faulted sessions are never persisted
    /// (their caches are deliberately poisoned test state); simulate
    /// sessions aren't either — their sampled batches regenerate bitwise
    /// from the seed stream, so there is nothing worth a disk format.
    fn write_snapshot(&self, key: &SessionKey, session: &WarmSession) -> bool {
        let Some(dir) = &self.state_dir else {
            return false;
        };
        if key.fault.is_some() || key.sim.is_some() {
            return false;
        }
        let entries: Vec<SnapshotEntry> = session
            .export_entries()
            .into_iter()
            .map(|entry| {
                let (_, ts, ys, ds, stats) = entry.trajectory.to_flat();
                SnapshotEntry {
                    m0_bits: entry.m0.as_slice().iter().map(|x| x.to_bits()).collect(),
                    ts_bits: ts.iter().map(|x| x.to_bits()).collect(),
                    ys_bits: ys.iter().map(|x| x.to_bits()).collect(),
                    ds_bits: ds.iter().map(|x| x.to_bits()).collect(),
                    stats: [
                        stats.accepted as u64,
                        stats.rejected as u64,
                        stats.rhs_evals as u64,
                        stats.recoveries as u64,
                        stats.stiff_fallbacks as u64,
                    ],
                    regime: entry.regime.map(|r| RegimeSnapshot {
                        distribution_bits: r.distribution.iter().map(|x| x.to_bits()).collect(),
                        settle_bits: r.settle_time.map(f64::to_bits),
                    }),
                    cache: entry.cache,
                }
            })
            .collect();
        let engine = session.stats();
        let snapshot = SessionSnapshot {
            model: key.model.clone(),
            params: key.params.clone(),
            fast: key.fast,
            entries,
            cached_sets: engine.cache.cached_sets as u64,
            cached_curves: engine.cache.cached_curves as u64,
        };
        let final_path = dir.join(file_name(key));
        let tmp_path = final_path.with_extension("snap.tmp");
        // Write-then-rename: a crash mid-write leaves a `.tmp` orphan, never
        // a torn `.snap` (and a torn file would fail its checksum anyway).
        if std::fs::write(&tmp_path, snapshot.encode()).is_err() {
            return false;
        }
        std::fs::rename(&tmp_path, &final_path).is_ok()
    }

    /// Current warm-state persistence counters.
    #[must_use]
    pub fn snapshot_counters(&self) -> SnapshotCounters {
        self.lock().snapshots
    }

    /// Number of sessions currently warm.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().sessions.len()
    }

    /// Whether the store holds no sessions yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sessions evicted since startup.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.lock().evicted
    }

    /// Number of sessions quarantined since startup.
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.lock().quarantined
    }

    /// Merged engine counters over every warm session plus every evicted
    /// one (for `/metrics`; totals stay monotonic across evictions).
    #[must_use]
    pub fn merged_stats(&self) -> EngineStats {
        let inner = self.lock();
        let mut total = inner.retired.clone();
        for entry in inner.sessions.values() {
            total.merge(&entry.session.stats());
        }
        total
    }

    /// Acquires the store mutex. The guarded state is a cache of plain
    /// counters and `Arc`s with no invariants that a panic mid-update could
    /// break, so a poisoned lock is recovered rather than propagated — the
    /// daemon must not die because one handler thread panicked.
    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfcsl_core::mfcsl::parse_formula;

    fn sis_model() -> LocalModel {
        mfcsl_modelfile::ModelFile::parse(
            "state s : healthy\nstate i : infected\nparam beta = 2\n\
             rate s -> i : beta * m[i]\nrate i -> s : 1\n",
        )
        .unwrap()
        .instantiate()
        .unwrap()
    }

    #[test]
    fn warm_session_checks_and_survives_moves() {
        let pool = Arc::new(ThreadPool::new(2));
        let warm = WarmSession::new(sis_model(), false, None, pool);
        // Move the struct (heap model address must stay valid).
        let warm = Box::new(warm);
        let warm = *warm;
        let psi = parse_formula("E{<0.4}[ infected ]").unwrap();
        let m0 = Occupancy::new(vec![0.9, 0.1]).unwrap();
        let verdicts = warm.check_all(std::slice::from_ref(&psi), &m0).unwrap();
        assert!(verdicts[0].holds());
        assert_eq!(warm.stats().trajectory_solves, 1);
    }

    #[test]
    fn warm_session_is_shared_across_threads() {
        let pool = Arc::new(ThreadPool::new(2));
        let warm = Arc::new(WarmSession::new(sis_model(), false, None, pool));
        let psi = parse_formula("E{<0.4}[ infected ]").unwrap();
        let m0 = Occupancy::new(vec![0.9, 0.1]).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let warm = Arc::clone(&warm);
                let psi = psi.clone();
                let m0 = m0.clone();
                std::thread::spawn(move || warm.check_all(std::slice::from_ref(&psi), &m0).unwrap())
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap()[0].holds());
        }
        // All four checks shared one trajectory.
        assert_eq!(warm.stats().trajectory_solves, 1);
    }

    #[test]
    fn store_evicts_least_recently_used_session() {
        let dir = std::env::temp_dir().join(format!("mfcsl-store-lru-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("sis.mf"),
            "state s : healthy\nstate i : infected\nparam beta = 2\n\
             rate s -> i : beta * m[i]\nrate i -> s : 1\n",
        )
        .unwrap();
        let reg = ModelRegistry::load(std::slice::from_ref(&dir)).unwrap();
        let pool = Arc::new(ThreadPool::new(1));
        let store = SessionStore::new(pool, 2, None);
        let key = |beta: f64| {
            SessionKey::new(
                "sis",
                &[("beta".to_string(), beta)].into_iter().collect(),
                false,
                None,
            )
        };

        let (first, warm) = store.get_or_create(&reg, &key(1.0)).unwrap();
        assert!(!warm);
        // Give the first session some engine history so eviction has
        // counters to retire.
        let psi = parse_formula("E{<0.9}[ infected ]").unwrap();
        let m0 = Occupancy::new(vec![0.9, 0.1]).unwrap();
        first.check_all(std::slice::from_ref(&psi), &m0).unwrap();

        assert!(!store.get_or_create(&reg, &key(2.0)).unwrap().1);
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(store.get_or_create(&reg, &key(1.0)).unwrap().1);
        assert!(!store.get_or_create(&reg, &key(3.0)).unwrap().1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.evicted(), 1);
        // Key 2 was evicted, key 1 stayed warm.
        assert!(store.get_or_create(&reg, &key(1.0)).unwrap().1);
        assert!(!store.get_or_create(&reg, &key(2.0)).unwrap().1);
        assert_eq!(store.evicted(), 2);
        // Push key 1 out entirely: its engine counters must survive in the
        // retired totals merged into `merged_stats`.
        assert!(!store.get_or_create(&reg, &key(4.0)).unwrap().1);
        assert!(!store.get_or_create(&reg, &key(5.0)).unwrap().1);
        assert_eq!(store.len(), 2);
        assert!(store.merged_stats().trajectory_solves >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_keys_distinguish_params_and_tolerances() {
        let base = SessionKey::new("sis", &BTreeMap::new(), false, None);
        let fast = SessionKey::new("sis", &BTreeMap::new(), true, None);
        let tweaked = SessionKey::new(
            "sis",
            &[("beta".to_string(), 3.0)].into_iter().collect(),
            false,
            None,
        );
        let faulted = SessionKey::new(
            "sis",
            &BTreeMap::new(),
            false,
            Some(FaultPlan::new(mfcsl_core::FaultMode::Nan, 1, 7)),
        );
        assert_ne!(base, fast);
        assert_ne!(base, tweaked);
        assert_ne!(
            base, faulted,
            "a faulted request must never share a healthy session"
        );
        assert_eq!(base, SessionKey::new("sis", &BTreeMap::new(), false, None));
    }

    #[test]
    fn repeated_failures_quarantine_and_rebuild_a_session() {
        let dir = std::env::temp_dir().join(format!("mfcsl-store-qrt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("sis.mf"),
            "state s : healthy\nstate i : infected\nparam beta = 2\n\
             rate s -> i : beta * m[i]\nrate i -> s : 1\n",
        )
        .unwrap();
        let reg = ModelRegistry::load(std::slice::from_ref(&dir)).unwrap();
        let pool = Arc::new(ThreadPool::new(1));
        let store = SessionStore::new(pool, 4, None);
        let key = SessionKey::new("sis", &BTreeMap::new(), false, None);

        let (_, warm) = store.get_or_create(&reg, &key).unwrap();
        assert!(!warm);
        // Successes keep resetting the consecutive-failure count.
        assert!(!store.record_failure(&key));
        store.record_success(&key);
        assert!(!store.record_failure(&key));
        assert!(!store.record_failure(&key));
        assert_eq!(store.quarantined(), 0);
        // The third *consecutive* failure quarantines.
        assert!(store.record_failure(&key));
        assert_eq!(store.quarantined(), 1);
        assert_eq!(store.len(), 0);
        // A failure on an already-quarantined (absent) key is a no-op.
        assert!(!store.record_failure(&key));
        assert_eq!(store.quarantined(), 1);
        // The next request rebuilds the session cold.
        let (_, warm) = store.get_or_create(&reg, &key).unwrap();
        assert!(!warm, "quarantined session must be rebuilt, not reused");
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
