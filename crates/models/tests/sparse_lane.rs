//! Sparse-lane equivalence properties: the CSC/iterative kernels must
//! reproduce the dense reference answers wherever both lanes can run.
//!
//! Three claims, swept by proptest:
//!
//! * **Table II, steady state** — on each of the four Table II settings
//!   frozen at a random interior occupancy, the matrix-free GMRES solve of
//!   the bordered stationary system agrees with the dense LU steady state
//!   to 1e-12;
//! * **Table II, transient** — the CSC uniformization
//!   ([`SparseCtmc::transient_distribution`]) agrees with the dense
//!   uniformization to 1e-12 on the same frozen chains;
//! * **queueing at small `K`** — at `K` just past the density threshold
//!   (where [`steady_state_sparse`] takes the iterative branch for real),
//!   sparse steady state and transient agree with explicit dense
//!   references to 1e-12, and the lazily restricted satisfaction sets of
//!   the checked trajectory equal eager full-space labeling exactly.

use mfcsl_core::{meanfield, LocalModel, Occupancy};
use mfcsl_ctmc::sparse::SparseCtmc;
use mfcsl_ctmc::steady::{steady_state, steady_state_sparse};
use mfcsl_ctmc::transient::transient_distribution;
use mfcsl_ctmc::Ctmc;
use mfcsl_math::gmres::gmres;
use mfcsl_math::lu::LuDecomposition;
use mfcsl_math::Matrix;
use mfcsl_models::{queueing, virus};
use mfcsl_ode::OdeOptions;
use proptest::prelude::*;

/// Builds the sparse twin of `model` frozen at occupancy `m`, through the
/// same sparsity-pattern + `write_rates_at` plumbing the checking lane
/// uses.
fn sparse_chain_of(model: &LocalModel, m: &Occupancy) -> SparseCtmc {
    let (from, to) = model.sparsity();
    let mut rates = vec![0.0; from.len()];
    model.write_rates_at(m, &mut rates);
    let triplets: Vec<(usize, usize, f64)> = from
        .iter()
        .zip(to)
        .zip(&rates)
        .map(|((&f, &t), &r)| (f, t, r))
        .collect();
    SparseCtmc::from_triplets(model.n_states(), &triplets).expect("valid frozen chain")
}

/// Builds the dense twin of `model` frozen at occupancy `m`.
fn dense_chain_of(model: &LocalModel, m: &Occupancy) -> Ctmc {
    let q = model.generator_at(m).expect("valid generator");
    Ctmc::from_parts(model.state_names().to_vec(), q, model.labeling().clone())
        .expect("valid frozen chain")
}

/// Solves the bordered stationary system of `chain` with matrix-free
/// GMRES — the same operator the large-`K` lane applies, callable at any
/// size.
fn stationary_via_gmres(chain: &SparseCtmc) -> Vec<f64> {
    let n = chain.n_states();
    let rates = chain.rates_csc();
    let exit = chain.exit_rates();
    let apply = |x: &[f64], y: &mut [f64]| {
        for j in 0..n {
            y[j] = rates.gather(x, j) - exit[j] * x[j];
        }
        y[n - 1] = x.iter().sum();
    };
    let mut b = vec![0.0; n];
    b[n - 1] = 1.0;
    let x0 = vec![1.0 / n as f64; n];
    let (mut pi, stats) = gmres(apply, &b, &x0, n.min(60), 2000, 1e-15).expect("gmres runs");
    assert!(
        stats.converged || stats.residual <= 1e-12,
        "gmres stalled at residual {}",
        stats.residual
    );
    for v in &mut pi {
        *v = v.max(0.0);
    }
    let total: f64 = pi.iter().sum();
    for v in &mut pi {
        *v /= total;
    }
    pi
}

/// Dense bordered-LU stationary reference, independent of the `steady`
/// module's routing.
fn stationary_via_dense_lu(q: &Matrix) -> Vec<f64> {
    let n = q.rows();
    let mut system = Matrix::zeros(n, n);
    for j in 0..n - 1 {
        for i in 0..n {
            system[(j, i)] = q[(i, j)];
        }
    }
    for i in 0..n {
        system[(n - 1, i)] = 1.0;
    }
    let mut rhs = vec![0.0; n];
    rhs[n - 1] = 1.0;
    LuDecomposition::new(&system)
        .expect("factors")
        .solve(&rhs)
        .expect("solves")
}

/// A random interior point of the 3-state simplex (same bounds as the
/// hot-path equivalence suite: away from the smart-virus rate cap).
fn occupancy3_strategy() -> impl Strategy<Value = Occupancy> {
    (0.15f64..1.0, 0.15f64..1.0, 0.15f64..1.0).prop_map(|(a, b, c)| {
        let s = a + b + c;
        Occupancy::new(vec![a / s, b / s, c / s]).expect("normalized simplex point")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Matrix-free GMRES on the bordered system vs dense LU steady state,
    /// across all four Table II settings.
    #[test]
    fn table2_sparse_steady_matches_dense(m in occupancy3_strategy()) {
        for (name, params, law) in virus::table2_settings() {
            let model = virus::model(params, law).expect("valid params");
            let sparse = sparse_chain_of(&model, &m);
            let dense = dense_chain_of(&model, &m);
            let via_gmres = stationary_via_gmres(&sparse);
            let via_lu = steady_state(&dense).expect("dense steady state");
            for (i, (a, b)) in via_gmres.iter().zip(&via_lu).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-12,
                    "{name} state {i}: gmres {a} vs lu {b}"
                );
            }
        }
    }

    /// CSC uniformization vs dense uniformization on the frozen Table II
    /// chains.
    #[test]
    fn table2_sparse_transient_matches_dense(
        m in occupancy3_strategy(),
        t in 0.3f64..2.0,
    ) {
        for (name, params, law) in virus::table2_settings() {
            let model = virus::model(params, law).expect("valid params");
            let sparse = sparse_chain_of(&model, &m);
            let dense = dense_chain_of(&model, &m);
            let pi_sparse = sparse
                .transient_distribution(m.as_slice(), t, 1e-14)
                .expect("sparse transient");
            let pi_dense = transient_distribution(&dense, m.as_slice(), t, 1e-14)
                .expect("dense transient");
            for (i, (a, b)) in pi_sparse.iter().zip(&pi_dense).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-12,
                    "{name} t={t} state {i}: sparse {a} vs dense {b}"
                );
            }
        }
    }
}

/// A truncated-geometric occupancy over `k` states with ratio `rho`.
fn geometric_occupancy(k: usize, rho: f64) -> Occupancy {
    let mut m: Vec<f64> = (0..k).map(|i| rho.powi(i as i32)).collect();
    let total: f64 = m.iter().sum();
    for v in &mut m {
        *v /= total;
    }
    let correction: f64 = 1.0 - m.iter().sum::<f64>();
    m[0] += correction;
    Occupancy::new(m).expect("normalized occupancy")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Queueing chains just past the density threshold: the public
    /// `steady_state_sparse` (which takes the GMRES/power branch at these
    /// sizes) and the CSC transient must match explicit dense references.
    #[test]
    fn queueing_sparse_matches_dense_at_small_k(
        cap in 63usize..120,
        rho in 0.3f64..0.9,
        t in 0.2f64..1.0,
    ) {
        let params = queueing::Params { cap, ..queueing::default_params() };
        let model = queueing::model(params).expect("valid params");
        let m = geometric_occupancy(cap + 1, rho);
        let sparse = sparse_chain_of(&model, &m);

        let pi_sparse = steady_state_sparse(&sparse).expect("sparse steady state");
        let q = model.generator_at(&m).expect("valid generator");
        let pi_dense = stationary_via_dense_lu(&q);
        for (i, (a, b)) in pi_sparse.iter().zip(&pi_dense).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-12,
                "steady state {i}: sparse {a} vs dense {b}"
            );
        }

        let dense = dense_chain_of(&model, &m);
        let pt_sparse = sparse
            .transient_distribution(m.as_slice(), t, 1e-14)
            .expect("sparse transient");
        let pt_dense = transient_distribution(&dense, m.as_slice(), t, 1e-14)
            .expect("dense transient");
        for (i, (a, b)) in pt_sparse.iter().zip(&pt_dense).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-12,
                "transient t={t} state {i}: sparse {a} vs dense {b}"
            );
        }
    }
}

/// The on-the-fly satisfaction sets of a checked trajectory (restricted
/// to the reachable closure) must equal eager full-space labeling on the
/// queueing model — its birth–death topology makes every state reachable
/// from the `q0` start, so the lazy and eager vectors coincide exactly.
#[test]
fn queueing_lazy_sat_sets_equal_eager_labeling() {
    let params = queueing::Params {
        cap: 80,
        ..queueing::default_params()
    };
    let model = queueing::model(params).expect("valid params");
    let k = params.cap + 1;
    let m0 = Occupancy::unit(k, 0).expect("valid occupancy");
    let sol = meanfield::solve(&model, &m0, 0.5, &OdeOptions::default()).expect("solves");
    let tv = sol.local_tv_model().expect("valid model");
    assert_eq!(
        tv.reachable().map(<[usize]>::len),
        Some(k),
        "every queue length is reachable from q0"
    );
    for ap in model.labeling().alphabet() {
        let lazy = tv.sat_ap(&ap).expect("known proposition");
        let eager: Vec<bool> = (0..k).map(|s| model.labeling().has(s, &ap)).collect();
        assert_eq!(lazy, eager, "satisfaction set for `{ap}` diverges");
    }
}
