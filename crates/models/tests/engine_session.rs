//! Integration tests of the memoizing analysis engine against the shipped
//! models: the single-solve acceptance property over the paper's virus
//! example, and randomized bitwise-equivalence between cached and uncached
//! checking.

use mfcsl_core::mfcsl::{parse_formula, CheckSession, Checker, MfFormula};
use mfcsl_core::Occupancy;
use mfcsl_csl::parse_path_formula;
use mfcsl_models::{sis, virus};

/// A 3-operator MF-CSL conjunction over the paper's virus model performs
/// exactly one mean-field ODE solve: the horizon is the maximum over all
/// nested until windows up front, and every operator shares the
/// trajectory.
#[test]
fn virus_conjunction_is_one_mean_field_solve() {
    let model = virus::model(virus::setting_1(), virus::InfectionLaw::SmartVirus).unwrap();
    let m0 = virus::example_occupancy().unwrap();
    let psi = parse_formula(
        "E{<0.5}[ infected ] \
         & EP{<0.99}[ not_infected U[0,3] infected ] \
         & EP{>0}[ tt U[0,1] active ]",
    )
    .unwrap();
    let session = CheckSession::new(&model);
    session.check(&psi, &m0).unwrap();
    let stats = session.stats();
    assert_eq!(
        stats.trajectory_solves, 1,
        "expected exactly one mean-field solve, stats: {stats:?}"
    );
    assert_eq!(stats.trajectory_extensions, 0, "stats: {stats:?}");
    assert_eq!(stats.solves.len(), 1);
    // Solved to the largest until window (3) in one go.
    assert!(stats.solves[0].t_to >= 3.0, "stats: {stats:?}");
    // And the verdict agrees with the uncached checker.
    assert_eq!(
        session.check(&psi, &m0).unwrap(),
        Checker::new(&model).check(&psi, &m0).unwrap()
    );
}

/// Checking the three operators as *separate* formulas through one session
/// still costs a single solve (batch horizon is taken up front).
#[test]
fn virus_formula_batch_is_one_mean_field_solve() {
    let model = virus::model(virus::setting_1(), virus::InfectionLaw::SmartVirus).unwrap();
    let m0 = virus::example_occupancy().unwrap();
    let psis: Vec<MfFormula> = [
        "E{<0.5}[ infected ]",
        "EP{<0.99}[ not_infected U[0,3] infected ]",
        "EP{>0}[ tt U[0,1] active ]",
    ]
    .iter()
    .map(|f| parse_formula(f).unwrap())
    .collect();
    let session = CheckSession::new(&model);
    session.check_all(&psis, &m0).unwrap();
    let stats = session.stats();
    assert_eq!(stats.trajectory_solves, 1, "stats: {stats:?}");
    assert_eq!(stats.trajectory_extensions, 0, "stats: {stats:?}");
}

/// ES operators share the cached stationary regime across formulas.
#[test]
fn sis_steady_operators_share_the_regime() {
    let model = sis::model(2.0, 1.0).unwrap();
    let m0 = Occupancy::new(vec![0.9, 0.1]).unwrap();
    let session = CheckSession::new(&model);
    let psis: Vec<MfFormula> = [
        "ES{>0.45}[ infected ]",
        "ES{<0.55}[ infected ]",
        "ES{>0.45}[ healthy ]",
    ]
    .iter()
    .map(|f| parse_formula(f).unwrap())
    .collect();
    for v in session.check_all(&psis, &m0).unwrap() {
        assert!(v.holds());
    }
    let stats = session.stats();
    assert_eq!(stats.regime_solves, 1, "stats: {stats:?}");
    assert_eq!(stats.regime_reuses, 2, "stats: {stats:?}");
}

mod prop {
    use super::*;
    use mfcsl_core::LocalModel;
    use proptest::prelude::*;

    /// The random models of the equivalence property.
    fn build_model(which: usize) -> LocalModel {
        match which {
            0 => sis::model(2.0, 1.0).unwrap(),
            _ => virus::model(virus::setting_1_swapped(), virus::InfectionLaw::SmartVirus).unwrap(),
        }
    }

    fn build_m0(which: usize, infected: f64) -> Occupancy {
        match which {
            0 => Occupancy::new(vec![1.0 - infected, infected]).unwrap(),
            _ => Occupancy::new(vec![1.0 - infected, 0.75 * infected, 0.25 * infected]).unwrap(),
        }
    }

    /// A random MF-CSL formula over the model's shared `infected` label.
    fn build_formula(which: usize, op: usize, p: f64, window: f64) -> MfFormula {
        let text = match op {
            0 => format!("E{{<{p}}}[ infected ]"),
            1 => format!("E{{>={p}}}[ !infected ]"),
            2 => format!("EP{{<{p}}}[ !infected U[0,{window}] infected ]"),
            3 => format!("EP{{>{p}}}[ tt U[0,{window}] infected ]"),
            4 => format!(
                "E{{<{p}}}[ infected ] & EP{{>{}}}[ tt U[0,{window}] infected ]",
                1.0 - p
            ),
            // ES only for SIS (its endemic point is known stable from any
            // interior occupancy).
            _ if which == 0 => format!("ES{{>{p}}}[ infected ]"),
            _ => format!("E{{>{p}}}[ infected ]"),
        };
        parse_formula(&text).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Engine-cached verdicts are bitwise-identical to a fresh
        /// uncached checker: a cold session solves to the same horizon
        /// and runs the same (shared) implementation, and a warm session
        /// replays memoized artifacts unchanged.
        #[test]
        fn prop_session_verdicts_bitwise_match_uncached(
            which in 0usize..2,
            infected in 0.05f64..0.9,
            p in 0.05f64..0.95,
            window in 0.5f64..4.0,
            op in 0usize..6,
        ) {
            let model = build_model(which);
            let m0 = build_m0(which, infected);
            let psi = build_formula(which, op, p, window);
            let uncached = Checker::new(&model).check(&psi, &m0).unwrap();
            let session = CheckSession::new(&model);
            let cold = session.check(&psi, &m0).unwrap();
            prop_assert_eq!(cold, uncached);
            // Fully cached replay: trajectory, regime, sets, and curves
            // all come from the session's caches.
            let warm = session.check(&psi, &m0).unwrap();
            prop_assert_eq!(warm, uncached);
        }

        /// Parallel batch checking is bitwise-identical to the serial
        /// session at every thread count: the pool only changes *where*
        /// each per-formula task runs, never what it computes.
        #[test]
        fn prop_parallel_batch_bitwise_matches_serial(
            which in 0usize..2,
            // Stay inside the swapped virus model's domain (see the curve
            // property below for the `m1 → 0` divergence).
            infected in 0.05f64..0.6,
            p in 0.05f64..0.95,
            window in 0.5f64..4.0,
        ) {
            let model = build_model(which);
            let m0 = build_m0(which, infected);
            let psis: Vec<MfFormula> =
                (0..6).map(|op| build_formula(which, op, p, window)).collect();
            let serial = CheckSession::new(&model).check_all(&psis, &m0).unwrap();
            for threads in [1usize, 2, 8] {
                let pool = std::sync::Arc::new(mfcsl_pool::ThreadPool::new(threads));
                let session = CheckSession::new(&model).with_pool(pool);
                let got = session.check_all(&psis, &m0).unwrap();
                prop_assert_eq!(&got, &serial, "threads = {}", threads);
            }
        }

        /// Parallel CSat sweeps produce interval sets whose endpoints are
        /// bitwise-identical to the serial sweep at every thread count.
        #[test]
        fn prop_parallel_csat_sweep_bitwise_matches_serial(
            which in 0usize..2,
            p in 0.1f64..0.9,
            // Bounded like the curve property: the swapped virus model
            // leaves its domain for long horizons from high infection.
            theta in 2.0f64..5.0,
        ) {
            let model = build_model(which);
            let psi = build_formula(which, 0, p, 1.0);
            let m0s: Vec<Occupancy> =
                (1..6).map(|i| build_m0(which, 0.1 * f64::from(i))).collect();
            let serial = CheckSession::new(&model).csat_sweep(&psi, &m0s, theta).unwrap();
            for threads in [1usize, 2, 8] {
                let pool = std::sync::Arc::new(mfcsl_pool::ThreadPool::new(threads));
                let session = CheckSession::new(&model).with_pool(pool);
                let got = session.csat_sweep(&psi, &m0s, theta).unwrap();
                prop_assert_eq!(got.len(), serial.len());
                for (a, b) in serial.iter().zip(&got) {
                    prop_assert_eq!(a.intervals().len(), b.intervals().len(),
                        "threads = {}", threads);
                    for (ia, ib) in a.intervals().iter().zip(b.intervals()) {
                        prop_assert_eq!(ia.lo().value.to_bits(), ib.lo().value.to_bits(),
                            "threads = {}", threads);
                        prop_assert_eq!(ia.hi().value.to_bits(), ib.hi().value.to_bits(),
                            "threads = {}", threads);
                    }
                }
            }
        }

        /// Probability curves drawn from a pool-attached session after a
        /// parallel batch are bitwise-identical, sample for sample, to the
        /// serial session's curves.
        #[test]
        fn prop_parallel_prob_curves_bitwise_match_serial(
            which in 0usize..2,
            // High initial infection over long horizons drives the swapped
            // virus model's `k1·m3/m1` rate to infinity as `m1 → 0` (a
            // model-domain limit, not a checker bug); stay inside it.
            infected in 0.05f64..0.6,
            window in 0.5f64..4.0,
            theta in 0.5f64..4.0,
        ) {
            let model = build_model(which);
            let m0 = build_m0(which, infected);
            let path =
                parse_path_formula(&format!("!infected U[0,{window}] infected")).unwrap();
            // Both sessions run the same call sequence (batch, then curve)
            // so their trajectories take the same solve-then-extend path;
            // only the batch's scheduling differs.
            let psis = vec![
                parse_formula(&format!(
                    "EP{{<0.99}}[ !infected U[0,{window}] infected ]"
                )).unwrap(),
                parse_formula("E{<0.5}[ infected ]").unwrap(),
            ];
            let serial_session = CheckSession::new(&model);
            serial_session.check_all(&psis, &m0).unwrap();
            let serial = serial_session.path_prob_curve(&path, &m0, theta).unwrap();
            for threads in [1usize, 2, 8] {
                let pool = std::sync::Arc::new(mfcsl_pool::ThreadPool::new(threads));
                let session = CheckSession::new(&model).with_pool(pool);
                session.check_all(&psis, &m0).unwrap();
                let curve = session.path_prob_curve(&path, &m0, theta).unwrap();
                for i in 0..=20 {
                    let t = theta * f64::from(i) / 20.0;
                    let reference = serial.probs_at(t);
                    let got = curve.probs_at(t);
                    for s in 0..reference.len() {
                        prop_assert_eq!(reference[s].to_bits(), got[s].to_bits(),
                            "threads = {} t = {} state = {}", threads, t, s);
                    }
                }
            }
        }

        /// Engine-cached probability curves are bitwise-identical to the
        /// fresh uncached checker's curves, sample for sample.
        #[test]
        fn prop_session_prob_curves_bitwise_match_uncached(
            which in 0usize..2,
            infected in 0.05f64..0.9,
            window in 0.5f64..4.0,
            theta in 0.5f64..5.0,
        ) {
            let model = build_model(which);
            let m0 = build_m0(which, infected);
            let path =
                parse_path_formula(&format!("!infected U[0,{window}] infected")).unwrap();
            let uncached = Checker::new(&model).ep_curve(&path, &m0, theta).unwrap();
            let session = CheckSession::new(&model);
            let cold = session.path_prob_curve(&path, &m0, theta).unwrap();
            let warm = session.path_prob_curve(&path, &m0, theta).unwrap();
            for i in 0..=20 {
                let t = theta * f64::from(i) / 20.0;
                let reference = uncached.prob_curve().probs_at(t);
                let c = cold.probs_at(t);
                let w = warm.probs_at(t);
                for s in 0..reference.len() {
                    prop_assert_eq!(reference[s].to_bits(), c[s].to_bits(),
                        "cold curve differs at t = {} state {}", t, s);
                    prop_assert_eq!(c[s].to_bits(), w[s].to_bits(),
                        "warm curve differs at t = {} state {}", t, s);
                }
            }
        }
    }
}
