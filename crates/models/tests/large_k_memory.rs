//! The large-`K` acceptance check of the sparse lane: a `K = 1024`
//! bounded-queue model must go through steady-state and time-bounded
//! until checking end-to-end while the peak heap growth of each kernel
//! stays below ONE dense `K × K` matrix (8·K² bytes = 8 MiB) — i.e. the
//! hot path allocates `O(nnz)` working memory and never materializes a
//! dense generator, propagator, or transient.
//!
//! The test binary installs [`mfcsl_math::alloc_counter`] as its global
//! allocator and brackets each kernel; a single `#[test]` holds both
//! brackets so no concurrent test pollutes the process-global counter.

use mfcsl_core::{meanfield, Occupancy};
use mfcsl_csl::until::until_probabilities_sparse;
use mfcsl_csl::{TimeInterval, Tolerances};
use mfcsl_ctmc::sparse::SparseCtmc;
use mfcsl_ctmc::steady::steady_state_sparse;
use mfcsl_math::alloc_counter;
use mfcsl_models::queueing;
use mfcsl_ode::OdeOptions;

#[global_allocator]
static GLOBAL: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

const K: usize = 1024;
/// One dense `K × K` f64 matrix — the memory the dense lane would need
/// for a single resident generator or transient, and the bound every
/// sparse kernel must stay under.
const DENSE_MATRIX_BYTES: u64 = (8 * K * K) as u64;

#[test]
fn k1024_checks_complete_below_one_dense_matrix() {
    assert!(alloc_counter::installed());
    let params = queueing::Params {
        cap: K - 1,
        ..queueing::default_params()
    };
    let model = queueing::model(params).expect("valid params");
    let m0 = Occupancy::unit(K, 0).expect("valid occupancy");
    // Trajectory production happens before the checking kernels and is
    // deliberately outside the brackets; a short horizon keeps its knot
    // storage (O(steps · K)) modest.
    let sol = meanfield::solve(&model, &m0, 1.0, &OdeOptions::default()).expect("solves");

    // Kernel 1: stationary distribution at the frozen t = 1 occupancy via
    // CSC assembly + bordered GMRES.
    let frozen_m = sol.occupancy_at(1.0);
    let base = alloc_counter::begin();
    let (from, to) = model.sparsity();
    let mut rates = vec![0.0; from.len()];
    model.write_rates_at(&frozen_m, &mut rates);
    let triplets: Vec<(usize, usize, f64)> = from
        .iter()
        .zip(to)
        .zip(&rates)
        .map(|((&f, &t), &r)| (f, t, r))
        .collect();
    let chain = SparseCtmc::from_triplets(K, &triplets).expect("valid chain");
    assert!(
        (chain.memory_bytes() as u64) < DENSE_MATRIX_BYTES / 64,
        "CSC storage should be orders of magnitude below dense"
    );
    let pi = steady_state_sparse(&chain).expect("converges");
    let steady_peak = alloc_counter::delta(base).peak_bytes;
    assert_eq!(pi.len(), K);
    assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(
        steady_peak < DENSE_MATRIX_BYTES,
        "steady-state kernel peaked at {steady_peak} bytes >= one dense matrix \
         ({DENSE_MATRIX_BYTES})"
    );

    // Kernel 2: the time-bounded until through the vector-path backward
    // solve — EP[ tt U[0,0.8] congested ] over the checked trajectory.
    let tv = sol.local_tv_model().expect("valid model");
    let sat2 = tv.sat_ap("congested").expect("labeled");
    let base = alloc_counter::begin();
    let interval = TimeInterval::new(0.0, 0.8).expect("valid interval");
    let p =
        until_probabilities_sparse(&tv, &vec![true; K], &sat2, interval, &Tolerances::default())
            .expect("solves")
            .expect("sparse lane engages at K = 1024");
    let until_peak = alloc_counter::delta(base).peak_bytes;
    assert_eq!(p.len(), K);
    assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-9).contains(&x)));
    assert!(
        until_peak < DENSE_MATRIX_BYTES,
        "until kernel peaked at {until_peak} bytes >= one dense matrix \
         ({DENSE_MATRIX_BYTES})"
    );
}
