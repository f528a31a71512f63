//! A backend-agnostic uniformization propagator.
//!
//! Dense chains ([`crate::Ctmc`]) and CSR chains
//! ([`crate::sparse::SparseCtmc`]) both compute transient distributions the
//! same way: advance a row vector through uniformized steps `v ← v·P` with
//! `P = I + Q/Λ` and accumulate Poisson-weighted iterates. Only the step
//! kernel differs. [`Propagator`] abstracts that kernel so the windowed
//! driver exists exactly once, and [`choose_backend`] picks the cheaper
//! representation for a given chain size and transition count — the lumped
//! overall chains of a mean-field model with `N` objects have
//! `C(N+K-1, K-1)` states but only `O(K²)` transitions per state, where the
//! sparse kernel wins by orders of magnitude.
//!
//! # One step loop per Poisson window
//!
//! A step splits into column blocks of the *gather* kernel
//! ([`Propagator::step_columns`]). A window of `S` steps over `B` blocks is
//! `S·B` tickets, claimed in order from one atomic counter: ticket `t` is
//! block `t % B` of step `t / B`, and its lane first waits until the
//! `(t / B)·B` tickets of the earlier steps are done. Steps alternate
//! between two buffers, so that wait is the only synchronization, and the
//! block that writes `v[j]` also adds `acc[j] += w·v[j]`. The serial path
//! is this loop run by the caller alone; [`propagate_distribution_on`]
//! runs it on one pool task per lane. Every `v[j]` and `acc[j]` is the
//! same arithmetic in the same order whoever computes it, so results are
//! **bitwise identical** at any lane count. A lane only waits on tickets
//! that running lanes hold, so nesting cannot deadlock. DESIGN.md §7 has
//! the full argument.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

use mfcsl_math::{CscMatrix, Matrix};
use mfcsl_pool::ThreadPool;

use crate::sparse::SparseCtmc;
use crate::transient::PoissonWindow;
use crate::{Ctmc, CtmcError};

/// Below this state count a step is too cheap to be worth splitting across
/// lanes.
const MIN_PARALLEL_STATES: usize = 256;

/// Busy-wait rounds on a step barrier before a lane yields its core.
const SPINS_BEFORE_YIELD: u32 = 1 << 10;

/// One uniformized-step kernel: everything the windowed driver needs to run
/// transient analysis, independent of the matrix representation.
pub trait Propagator {
    /// Number of states.
    fn n_states(&self) -> usize;

    /// The uniformization rate `Λ` baked into the step kernel (`0` for a
    /// frozen chain with no transitions).
    fn unif_rate(&self) -> f64;

    /// The columns `start .. start + out.len()` of one uniformized step:
    /// `out[k] ← (v·P)[start + k]` with `P = I + Q/Λ`.
    ///
    /// This is the *only* arithmetic kernel of transient analysis: serial
    /// and pooled propagation run it over the same columns, which is what
    /// keeps parallel results bitwise identical to serial ones.
    ///
    /// Implementations may assume `v.len() == n_states()` and
    /// `start + out.len() <= n_states()`, and must fully overwrite `out`.
    fn step_columns(&self, v: &[f64], start: usize, out: &mut [f64]);
}

/// Dense propagator: materializes `Pᵀ = (I + Q/Λ)ᵀ` once so every column
/// gather of a step reads a contiguous row.
#[derive(Debug, Clone)]
pub struct DensePropagator {
    /// The transpose of the uniformized matrix: `pt[(j, i)] = P[i][j]`.
    pt: Matrix,
    unif: f64,
}

impl DensePropagator {
    /// Builds the uniformized matrix of a dense chain. The uniformization
    /// rate gets a 2% headroom over the maximal exit rate, which improves
    /// the conditioning of `P`'s diagonal.
    #[must_use]
    pub fn new(ctmc: &Ctmc) -> Self {
        Self::from_generator(ctmc.generator())
    }

    /// Builds the uniformized matrix straight from a generator matrix —
    /// used by the steady-regime fast path, where the constant generator
    /// `Q(m̃)` is written by a [`crate::inhomogeneous::TimeVaryingGenerator`]
    /// and never materialized as a [`Ctmc`]. The caller guarantees `q` is a
    /// valid generator (non-negative off-diagonals, rows summing to zero);
    /// rows of an absorbing (all-zero) chain yield the identity propagator.
    #[must_use]
    pub fn from_generator(q: &Matrix) -> Self {
        let n = q.rows();
        let rate = (0..n).map(|i| -q[(i, i)]).fold(0.0_f64, f64::max);
        if rate == 0.0 {
            return DensePropagator {
                pt: Matrix::identity(n),
                unif: 0.0,
            };
        }
        let unif = rate * 1.02;
        let mut p = q.scaled(1.0 / unif);
        for i in 0..n {
            p[(i, i)] += 1.0;
        }
        DensePropagator {
            pt: p.transpose(),
            unif,
        }
    }
}

impl Propagator for DensePropagator {
    fn n_states(&self) -> usize {
        self.pt.rows()
    }

    fn unif_rate(&self) -> f64 {
        self.unif
    }

    fn step_columns(&self, v: &[f64], start: usize, out: &mut [f64]) {
        for (k, o) in out.iter_mut().enumerate() {
            let col = self.pt.row(start + k);
            let mut acc = 0.0;
            for (vi, pij) in v.iter().zip(col) {
                acc += vi * pij;
            }
            *o = acc;
        }
    }
}

/// Sparse propagator: the uniformized step as a compact CSC gather kernel,
/// never materializing `P`. It owns its pattern with `u32` column pointers
/// and row indices (12 bytes per transition where a [`CscMatrix`] takes
/// 16), the rates pre-divided by `Λ`, and `P`'s diagonal.
#[derive(Debug, Clone)]
pub struct SparsePropagator {
    /// Column `j`'s entries sit at `col_ptr[j] .. col_ptr[j + 1]`.
    col_ptr: Vec<u32>,
    /// Source state of each entry, ascending within a column.
    row_idx: Vec<u32>,
    /// Off-diagonal entries of `P`: the rates divided by `Λ`.
    rates: Vec<f64>,
    /// `P`'s diagonal, `1 - exit[j]/Λ`.
    diag: Vec<f64>,
    unif: f64,
}

impl SparsePropagator {
    /// Builds the step kernel of a CSC chain with the same 2%
    /// uniformization headroom as the dense backend, so both produce
    /// identical Poisson windows.
    ///
    /// # Panics
    ///
    /// Panics if the chain has more than `u32::MAX` transitions;
    /// [`SparseCtmc::transient_distribution_on`] reports that as an error.
    #[must_use]
    pub fn new(ctmc: &SparseCtmc) -> Self {
        Self::from_csc(ctmc.rates_csc(), ctmc.exit_rates())
            .expect("chain exceeds the u32 index range of the step kernel")
    }

    /// Builds the step kernel from off-diagonal `(from, to, rate)` triplets
    /// over `n` states — the sparse twin of
    /// [`DensePropagator::from_generator`], used by the steady-regime tail
    /// path when a [`crate::inhomogeneous::TimeVaryingGenerator`] exposes
    /// its sparsity pattern. Non-positive and non-finite rates are dropped
    /// (mirroring the clamping the dense generator writers apply); duplicate
    /// pairs accumulate.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::InvalidGenerator`] for an empty state space,
    /// out-of-range indices, or more than `u32::MAX` transitions.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Result<Self, CtmcError> {
        let kept: Vec<(usize, usize, f64)> = triplets
            .iter()
            .filter(|&&(from, to, rate)| from != to && rate.is_finite() && rate > 0.0)
            .copied()
            .collect();
        // Validates `n > 0` and every index before `exit` is indexed.
        let p = CscMatrix::from_triplets(n, n, &kept)
            .map_err(|e| CtmcError::InvalidGenerator(e.to_string()))?;
        let mut exit = vec![0.0; n];
        for &(from, _, rate) in &kept {
            exit[from] += rate;
        }
        Self::from_csc(&p, &exit)
    }

    /// Narrows the pattern of the off-diagonal rates `p` (square, one row
    /// per exit rate) and divides by `Λ`.
    pub(crate) fn from_csc(p: &CscMatrix, exit: &[f64]) -> Result<Self, CtmcError> {
        let n = exit.len();
        if (p.n_rows(), p.n_cols()) != (n, n) {
            return Err(CtmcError::InvalidGenerator(format!(
                "rate matrix shape does not match {n} exit rates"
            )));
        }
        let rate = exit.iter().fold(0.0_f64, |m, &v| m.max(v));
        let unif = if rate == 0.0 { 0.0 } else { rate * 1.02 };
        let scale = |x: f64| if unif == 0.0 { x } else { x / unif };
        Ok(SparsePropagator {
            col_ptr: narrow(p.col_ptr())?,
            row_idx: narrow(p.row_idx())?,
            rates: p.values().iter().map(|&r| scale(r)).collect(),
            diag: exit.iter().map(|&e| 1.0 - scale(e)).collect(),
            unif,
        })
    }
}

/// Narrows CSC indices to `u32`, failing on the first that does not fit.
fn narrow(indices: &[usize]) -> Result<Vec<u32>, CtmcError> {
    let mut out = Vec::with_capacity(indices.len());
    for &i in indices {
        out.push(u32::try_from(i).map_err(|_| {
            CtmcError::InvalidGenerator(format!("index {i} exceeds the u32 step kernel"))
        })?);
    }
    Ok(out)
}

impl Propagator for SparsePropagator {
    fn n_states(&self) -> usize {
        self.diag.len()
    }

    fn unif_rate(&self) -> f64 {
        self.unif
    }

    /// `out[k] = v[j]·diag[j] + Σ_{i→j} v[i]·p[i][j]` with `j = start + k`,
    /// summed diagonal-first then by ascending source row — a fixed order,
    /// independent of any blocking.
    fn step_columns(&self, v: &[f64], start: usize, out: &mut [f64]) {
        if self.unif == 0.0 {
            out.copy_from_slice(&v[start..start + out.len()]);
            return;
        }
        assert_eq!(v.len(), self.diag.len(), "vector length != state count");
        let spans = self.col_ptr[start..=start + out.len()].windows(2);
        for ((o, j), span) in out.iter_mut().zip(start..).zip(spans) {
            let span = span[0] as usize..span[1] as usize;
            let mut acc = v[j] * self.diag[j];
            for (&i, &r) in self.row_idx[span.clone()].iter().zip(&self.rates[span]) {
                // SAFETY: `from_csc` copies a validated `CscMatrix` with one
                // row per state and `v.len()` is the state count (asserted
                // above), so `i < v.len()`. This is the innermost loop of
                // transient analysis.
                acc += unsafe { *v.get_unchecked(i as usize) } * r;
            }
            *o = acc;
        }
    }
}

/// Which step kernel [`choose_backend`] selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Materialize the full `n × n` uniformized matrix.
    Dense,
    /// Stream through CSC rate lists.
    Sparse,
}

/// Picks the cheaper uniformization backend for a chain with `n_states`
/// states and `n_transitions` stored (off-diagonal, nonzero) rates.
///
/// The dense step costs `n²` multiply-adds regardless of structure; the
/// sparse step costs `n + nnz` but with worse locality. The crossover in
/// practice sits near one quarter fill, and below ~64 states the dense
/// product is so cheap that sparsity bookkeeping never pays for itself.
#[must_use]
pub fn choose_backend(n_states: usize, n_transitions: usize) -> Backend {
    if n_states >= 64 && n_transitions * 4 < n_states * n_states {
        Backend::Sparse
    } else {
        Backend::Dense
    }
}

/// The shared state of one window's step loop; see the [module docs](self).
struct StepLoop<'a, P: ?Sized> {
    prop: &'a P,
    window: &'a PoissonWindow,
    /// Step `s` reads `bufs[s % 2]` and writes `bufs[(s + 1) % 2]`; `acc`
    /// is the Poisson sum. Each holds `n` values.
    bufs: [*mut f64; 2],
    acc: *mut f64,
    n: usize,
    /// Columns per block, blocks per step, and steps × blocks.
    block: usize,
    blocks: usize,
    tickets: usize,
    /// Next ticket to claim; tickets done; set when a block panicked.
    next: AtomicUsize,
    done: AtomicUsize,
    poisoned: AtomicBool,
}

// SAFETY: the raw buffer pointers are the only fields that are not `Sync`
// (`&P` is, for `P: Sync`). Lanes touch the buffers only in
// `StepLoop::compute`, whose ticket protocol gives each written column
// range one writer per step and orders every step's reads after the
// previous step's writes.
unsafe impl<P: Sync + ?Sized> Sync for StepLoop<'_, P> {}

impl<P: Propagator + ?Sized> StepLoop<'_, P> {
    /// One lane: claims tickets until none are left.
    fn run_lane(&self) {
        loop {
            // A claim publishes no data: `done` orders the buffers.
            let ticket = self.next.fetch_add(1, Ordering::Relaxed);
            if ticket >= self.tickets || !self.wait_for(ticket / self.blocks * self.blocks) {
                return;
            }
            let block = || self.compute(ticket / self.blocks, ticket % self.blocks);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(block)) {
                self.poisoned.store(true, Ordering::Release);
                resume_unwind(payload);
            }
            // Pairs with the `Acquire` load in `wait_for`: this block's
            // writes and its reads of the step's input happen before any
            // later step touches either buffer.
            self.done.fetch_add(1, Ordering::Release);
        }
    }

    /// Waits until `need` tickets are done; `false` if a lane panicked.
    fn wait_for(&self, need: usize) -> bool {
        let mut spins = 0;
        while self.done.load(Ordering::Acquire) < need {
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        true
    }

    /// Block `block` of step `step`, plus its Poisson term once the
    /// iterate the step produces lies inside the window.
    fn compute(&self, step: usize, block: usize) {
        let start = block * self.block;
        let len = self.block.min(self.n - start);
        // SAFETY: every buffer holds `n` values. This ticket is the only
        // writer of columns `start..start + len` of `bufs[(step + 1) % 2]`
        // and `acc` during step `step`; every writer of `bufs[step % 2]`
        // (step `step - 1`) is done, and so is every reader of it before
        // that (step `step - 2`).
        let (v, out, acc) = unsafe {
            (
                std::slice::from_raw_parts(self.bufs[step % 2], self.n),
                std::slice::from_raw_parts_mut(self.bufs[(step + 1) % 2].add(start), len),
                std::slice::from_raw_parts_mut(self.acc.add(start), len),
            )
        };
        self.prop.step_columns(v, start, out);
        let term = (step + 1).checked_sub(self.window.left);
        if let Some(&w) = term.and_then(|k| self.window.weights.get(k)) {
            for (a, &x) in acc.iter_mut().zip(out.iter()) {
                *a += w * x;
            }
        }
    }
}

/// Runs the step loop of `window` from `pi0` in column blocks of `block`
/// with the lanes `run` starts, and returns the Poisson sum renormalized
/// against the truncation loss.
fn run_window<P, F>(prop: &P, pi0: &[f64], window: &PoissonWindow, block: usize, run: F) -> Vec<f64>
where
    P: Propagator + ?Sized,
    F: FnOnce(&StepLoop<'_, P>),
{
    let n = prop.n_states();
    // The lanes read every buffer as `n` values.
    assert_eq!(pi0.len(), n, "distribution length != state count");
    let (mut v, mut scratch, mut acc) = (pi0.to_vec(), vec![0.0; n], vec![0.0; n]);
    if window.left == 0 {
        // The first Poisson term is `π₀` itself.
        for (a, &x) in acc.iter_mut().zip(pi0) {
            *a += window.weights[0] * x;
        }
    }
    let block = block.max(1);
    let blocks = n.div_ceil(block);
    run(&StepLoop {
        prop,
        window,
        bufs: [v.as_mut_ptr(), scratch.as_mut_ptr()],
        acc: acc.as_mut_ptr(),
        n,
        block,
        blocks,
        tickets: (window.left + window.weights.len() - 1) * blocks,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        poisoned: AtomicBool::new(false),
    });
    let mass: f64 = acc.iter().sum();
    if mass > 0.0 {
        for a in &mut acc {
            *a /= mass;
        }
    }
    acc
}

/// The serial propagation of `pi0` through a precomputed window — the
/// per-row kernel of [`crate::transient::transient_matrix_for`].
pub(crate) fn propagate_window<P: Propagator + ?Sized>(
    prop: &P,
    pi0: &[f64],
    window: &PoissonWindow,
) -> Vec<f64> {
    run_window(prop, pi0, window, prop.n_states(), |steps| steps.run_lane())
}

/// Validates `pi0`'s length, `t` and `eps`, and computes the Poisson window
/// of `Λt`, or `None` when the distribution cannot move (a frozen chain or
/// `t = 0`).
fn poisson_window<P: Propagator + ?Sized>(
    prop: &P,
    pi0: &[f64],
    t: f64,
    eps: f64,
) -> Result<Option<PoissonWindow>, CtmcError> {
    if pi0.len() != prop.n_states() {
        return Err(CtmcError::InvalidDistribution(format!(
            "distribution has length {}, expected {}",
            pi0.len(),
            prop.n_states()
        )));
    }
    if !(t >= 0.0) || !t.is_finite() {
        return Err(CtmcError::InvalidArgument(format!(
            "time must be finite and non-negative, got {t}"
        )));
    }
    if prop.unif_rate() == 0.0 || t == 0.0 {
        // Still surface a bad eps instead of silently accepting it.
        PoissonWindow::new(0.0, eps)?;
        return Ok(None);
    }
    PoissonWindow::new(prop.unif_rate() * t, eps).map(Some)
}

/// The windowed-uniformization driver:
/// `π(t) = Σ_k Poisson(Λt; k) · π₀ Pᵏ`, truncated to mass `≥ 1 − eps` and
/// renormalized against the truncation loss.
///
/// Beyond its length, validating `pi0` is the caller's job (the dense and
/// sparse front ends check it against their own state space).
///
/// # Errors
///
/// Returns [`CtmcError::InvalidDistribution`] if `pi0` does not have one
/// entry per state, and [`CtmcError::InvalidArgument`] for a negative or
/// non-finite `t` or `eps` outside `(0, 1)`.
pub fn propagate_distribution<P: Propagator + ?Sized>(
    prop: &P,
    pi0: &[f64],
    t: f64,
    eps: f64,
) -> Result<Vec<f64>, CtmcError> {
    Ok(match poisson_window(prop, pi0, t, eps)? {
        Some(window) => propagate_window(prop, pi0, &window),
        None => pi0.to_vec(),
    })
}

/// [`propagate_distribution`] with the window's step loop shared by
/// `min(pool.threads(), available parallelism)` lanes of `pool`, one pool
/// task each (see the [module docs](self)).
///
/// The result is **bitwise identical** to the serial path at any thread
/// count. With `pool = None` (or a single lane, or a chain too small to be
/// worth splitting) this *is* the serial path.
///
/// # Errors
///
/// As [`propagate_distribution`].
pub fn propagate_distribution_on<P: Propagator + Sync + ?Sized>(
    pool: Option<&ThreadPool>,
    prop: &P,
    pi0: &[f64],
    t: f64,
    eps: f64,
) -> Result<Vec<f64>, CtmcError> {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(mfcsl_pool::default_parallelism);
    let lanes = pool.map_or(1, |pool| pool.threads().min(cores));
    propagate_on_lanes(pool, lanes, prop, pi0, t, eps)
}

/// [`propagate_distribution_on`] with an explicit lane count.
fn propagate_on_lanes<P: Propagator + Sync + ?Sized>(
    pool: Option<&ThreadPool>,
    lanes: usize,
    prop: &P,
    pi0: &[f64],
    t: f64,
    eps: f64,
) -> Result<Vec<f64>, CtmcError> {
    let n = prop.n_states();
    let Some(pool) = pool.filter(|_| lanes > 1 && n >= MIN_PARALLEL_STATES) else {
        return propagate_distribution(prop, pi0, t, eps);
    };
    let Some(window) = poisson_window(prop, pi0, t, eps)? else {
        return Ok(pi0.to_vec());
    };
    // A few blocks per lane let the tickets balance uneven sparsity.
    let block = n.div_ceil(lanes * 4).max(64);
    Ok(run_window(prop, pi0, &window, block, |steps| {
        pool.scope(|s| (0..lanes).for_each(|_| s.spawn(move || steps.run_lane())));
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;

    fn two_state() -> Ctmc {
        CtmcBuilder::new()
            .state("a", ["a"])
            .state("b", ["b"])
            .transition("a", "b", 2.0)
            .unwrap()
            .transition("b", "a", 1.0)
            .unwrap()
            .build()
            .unwrap()
    }

    /// A random-ish sparse ring chain big enough to trigger blocking; the
    /// jumps across the ring make every block read far-off columns of the
    /// previous step.
    fn ring_triplets(n: usize) -> Vec<(usize, usize, f64)> {
        (0..n)
            .flat_map(|i| {
                [
                    (i, (i + 1) % n, 1.0 + (i % 7) as f64 * 0.3),
                    (i, (i + 3) % n, 0.2 + (i % 5) as f64 * 0.1),
                    (i, (i + n / 2) % n, 0.4),
                ]
            })
            .collect()
    }

    fn big_ring(n: usize) -> SparseCtmc {
        SparseCtmc::from_triplets(n, &ring_triplets(n)).unwrap()
    }

    fn halves(n: usize) -> Vec<f64> {
        let mut pi0 = vec![0.0; n];
        pi0[0] = 0.5;
        pi0[n / 2] = 0.5;
        pi0
    }

    /// Pooled runs at 1, 2, 3 and 8 threads against the serial driver, bit
    /// for bit, both capped to the host's cores and uncapped (so that an
    /// oversubscribed host runs every lane count too). Each window adds at
    /// most one pool task per lane.
    fn assert_pooled_matches_serial<P: Propagator + Sync>(prop: &P, pi0: &[f64], t: f64) {
        let serial = propagate_distribution(prop, pi0, t, 1e-12).unwrap();
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let uncapped = propagate_on_lanes(Some(&pool), threads, prop, pi0, t, 1e-12).unwrap();
            assert!(pool.stats().total_tasks <= threads as u64);
            let pooled = propagate_distribution_on(Some(&pool), prop, pi0, t, 1e-12).unwrap();
            for got in [pooled, uncapped] {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&serial), "threads = {threads}");
            }
        }
    }

    #[test]
    fn dense_and_sparse_backends_agree_bitwise() {
        // Same uniformization rate, same Poisson window, same arithmetic
        // order in the accumulation — the two kernels differ only in how
        // the product v·P is formed, which for this complete 2-state
        // generator touches the same rates.
        let dense = two_state();
        let sparse = SparseCtmc::from_triplets(2, &[(0, 1, 2.0), (1, 0, 1.0)]).unwrap();
        let dp = DensePropagator::new(&dense);
        let sp = SparsePropagator::new(&sparse);
        assert_eq!(dp.unif_rate(), sp.unif_rate());
        let pd = propagate_distribution(&dp, &[1.0, 0.0], 1.3, 1e-13).unwrap();
        let ps = propagate_distribution(&sp, &[1.0, 0.0], 1.3, 1e-13).unwrap();
        for (a, b) in pd.iter().zip(&ps) {
            assert!((a - b).abs() < 1e-12);
        }
        let exact = 1.0 / 3.0 + 2.0 / 3.0 * (-3.0_f64 * 1.3).exp();
        assert!((pd[0] - exact).abs() < 1e-10);
    }

    #[test]
    fn propagator_is_object_safe() {
        let dense = two_state();
        let sparse = SparseCtmc::from_triplets(2, &[(0, 1, 2.0), (1, 0, 1.0)]).unwrap();
        let dp = DensePropagator::new(&dense);
        let sp = SparsePropagator::new(&sparse);
        let boxed: Vec<Box<dyn Propagator + '_>> = vec![Box::new(dp), Box::new(sp)];
        for prop in &boxed {
            let pi = propagate_distribution(prop.as_ref(), &[0.5, 0.5], 0.7, 1e-12).unwrap();
            assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn frozen_chain_and_zero_time() {
        let frozen = CtmcBuilder::new().state("only", ["x"]).build().unwrap();
        let prop = DensePropagator::new(&frozen);
        assert_eq!(prop.unif_rate(), 0.0);
        let pi = propagate_distribution(&prop, &[1.0], 5.0, 1e-12).unwrap();
        assert_eq!(pi, vec![1.0]);
        let live = DensePropagator::new(&two_state());
        let pi = propagate_distribution(&live, &[0.4, 0.6], 0.0, 1e-12).unwrap();
        assert_eq!(pi, vec![0.4, 0.6]);
        // eps is still validated on the early-return paths.
        assert!(propagate_distribution(&live, &[0.4, 0.6], 0.0, 0.0).is_err());
    }

    #[test]
    fn validates_time() {
        let prop = DensePropagator::new(&two_state());
        assert!(propagate_distribution(&prop, &[1.0, 0.0], -1.0, 1e-12).is_err());
        assert!(propagate_distribution(&prop, &[1.0, 0.0], f64::NAN, 1e-12).is_err());
        // A distribution of the wrong length is an error, never a read past
        // the kernel's buffers.
        let sparse = SparsePropagator::new(&big_ring(300));
        for pi0 in [&[1.0][..], &[0.5; 301][..]] {
            assert!(propagate_distribution(&sparse, pi0, 1.0, 1e-12).is_err());
        }
    }

    #[test]
    fn backend_heuristic() {
        // Small chains always go dense.
        assert_eq!(choose_backend(3, 6), Backend::Dense);
        assert_eq!(choose_backend(63, 10), Backend::Dense);
        // Large sparse chains go sparse.
        assert_eq!(choose_backend(1000, 6000), Backend::Sparse);
        // Large dense chains stay dense.
        assert_eq!(choose_backend(100, 9900), Backend::Dense);
    }

    #[test]
    fn sparse_constructors_build_the_same_kernel() {
        let a = SparsePropagator::new(&big_ring(300));
        let b = SparsePropagator::from_triplets(300, &ring_triplets(300)).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(SparsePropagator::from_triplets(0, &[]).is_err());
        assert!(SparsePropagator::from_triplets(2, &[(0, 2, 1.0)]).is_err());
        assert_eq!(narrow(&[0, u32::MAX as usize]).unwrap(), [0, u32::MAX]);
        assert!(narrow(&[0, u32::MAX as usize + 1]).is_err());
    }

    #[test]
    fn blocked_sparse_step_is_bitwise_identical_to_serial() {
        let prop = SparsePropagator::new(&big_ring(700));
        assert_pooled_matches_serial(&prop, &halves(700), 2.5);
        // 1,001 states: no lane count's block size divides it.
        let prop = SparsePropagator::new(&big_ring(1001));
        assert_pooled_matches_serial(&prop, &halves(1001), 1.1);
    }

    #[test]
    fn blocked_dense_step_is_bitwise_identical_to_serial() {
        let n = 300;
        let mut builder = CtmcBuilder::new();
        let names: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
        for name in &names {
            builder = builder.state(name, [name.as_str()]);
        }
        for i in 0..n {
            builder = builder
                .transition(&names[i], &names[(i + 1) % n], 1.0 + (i % 3) as f64)
                .unwrap();
        }
        let prop = DensePropagator::new(&builder.build().unwrap());
        assert_pooled_matches_serial(&prop, &halves(n), 1.7);
    }

    #[test]
    fn short_windows_are_bitwise_identical_to_serial() {
        let prop = SparsePropagator::new(&big_ring(700));
        // Small Λt: the window starts at k = 0, so π₀ is its first term;
        // tinier still, a single weight and no step at all.
        for (t, weights) in [(0.05, None), (1e-14, Some(1))] {
            let w = PoissonWindow::new(prop.unif_rate() * t, 1e-12).unwrap();
            assert_eq!(w.left, 0);
            assert!(weights.is_none_or(|len| w.weights.len() == len));
            assert_pooled_matches_serial(&prop, &halves(700), t);
        }
    }

    #[test]
    fn pooled_driver_on_small_chain_falls_back_to_serial() {
        let prop = DensePropagator::new(&two_state());
        let pool = ThreadPool::new(4);
        let a = propagate_distribution(&prop, &[1.0, 0.0], 1.0, 1e-12).unwrap();
        let b = propagate_distribution_on(Some(&pool), &prop, &[1.0, 0.0], 1.0, 1e-12).unwrap();
        assert_eq!(a, b);
        assert_eq!(pool.stats().total_tasks, 0);
    }

    #[test]
    fn call_from_a_pool_task_finishes_while_every_worker_is_busy() {
        let prop = SparsePropagator::new(&big_ring(700));
        let serial = propagate_distribution(&prop, &halves(700), 2.5, 1e-12).unwrap();
        let pool = ThreadPool::new(3);
        let (busy, release) = (AtomicUsize::new(0), AtomicBool::new(false));
        let mut pooled = None;
        pool.scope(|s| {
            s.spawn(|| {
                while busy.load(Ordering::Acquire) < 2 {
                    std::thread::yield_now();
                }
                pooled = propagate_on_lanes(Some(&pool), 3, &prop, &halves(700), 2.5, 1e-12).ok();
                release.store(true, Ordering::Release);
            });
            for _ in 0..2 {
                s.spawn(|| {
                    busy.fetch_add(1, Ordering::AcqRel);
                    while !release.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                });
            }
        });
        assert_eq!(pooled, Some(serial));
    }

    /// A propagator whose kernel panics on its 38th block.
    struct Faulty(SparsePropagator, AtomicUsize);

    impl Propagator for Faulty {
        fn n_states(&self) -> usize {
            self.0.n_states()
        }

        fn unif_rate(&self) -> f64 {
            self.0.unif_rate()
        }

        fn step_columns(&self, v: &[f64], start: usize, out: &mut [f64]) {
            assert_ne!(self.1.fetch_add(1, Ordering::Relaxed), 37, "faulty block");
            self.0.step_columns(v, start, out);
        }
    }

    #[test]
    fn panicking_block_fails_the_pooled_call_instead_of_hanging() {
        for lanes in [2, 3, 8] {
            let prop = Faulty(SparsePropagator::new(&big_ring(700)), AtomicUsize::new(0));
            let pool = ThreadPool::new(lanes);
            let result = catch_unwind(AssertUnwindSafe(|| {
                propagate_on_lanes(Some(&pool), lanes, &prop, &halves(700), 2.5, 1e-12)
            }));
            let payload = result.expect_err("the block's panic must reach the caller");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("faulty block"), "lanes = {lanes}: {msg}");
        }
    }
}
