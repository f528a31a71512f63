//! Equivalence properties for the hot-path kernels, swept across all four
//! Table II parameter settings (`virus::table2_settings`) and, for the
//! mean-field drift, the bounded queue at `K = 9` and `K = 128` and the
//! parsed `gossip.mf` / `supermarket.mf`.
//!
//! Two classes of claims, with two different strengths:
//!
//! * **bitwise** — optimizations that only changed memory layout (shared
//!   solver workspaces, arena trajectory storage) or dropped exact-zero
//!   terms (the drift over the transition pattern instead of the dense
//!   `m̄·Q(m̄)`) must reproduce the reference bit for bit: same knots, same
//!   values, same derivatives, same step statistics;
//! * **within 1e-9** — the steady-regime fast path replaces a matrix-ODE
//!   integration by one uniformization (Eq. 14/15), which is a different
//!   numerical method, so agreement is required to 1e-9 — well below the
//!   solver tolerance but not exact.

use std::path::PathBuf;
use std::sync::Arc;

use mfcsl_core::meanfield::{self, MeanFieldSystem};
use mfcsl_core::{LocalModel, Occupancy};
use mfcsl_ctmc::inhomogeneous::{
    flat_to_matrix, propagate_window_from, transition_matrix, ConstantTail, FnGenerator,
};
use mfcsl_math::Matrix;
use mfcsl_modelfile::model_file::ModelFile;
use mfcsl_models::{queueing, virus};
use mfcsl_ode::problem::OdeSystem;
use mfcsl_ode::{OdeOptions, SolverWorkspace};
use proptest::prelude::*;

/// A random interior point of the 3-state simplex. Entries are bounded
/// away from the boundary so the smart-virus rate cap never engages and
/// the stiff Setting-2 rates stay integrable at test speed.
fn occupancy_strategy() -> impl Strategy<Value = Occupancy> {
    (0.15f64..1.0, 0.15f64..1.0, 0.15f64..1.0).prop_map(|(a, b, c)| {
        let s = a + b + c;
        Occupancy::new(vec![a / s, b / s, c / s]).expect("normalized simplex point")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Solving through a caller-owned, repeatedly reused workspace is the
    /// pure memory-layout change: every setting must give bitwise
    /// identical trajectories and identical step counts.
    #[test]
    fn workspace_reuse_is_bitwise_identical(
        m0 in occupancy_strategy(),
        theta in 0.5f64..2.5,
    ) {
        let opts = OdeOptions::default();
        let mut ws = SolverWorkspace::new();
        for (name, params, law) in virus::table2_settings() {
            let model = virus::model(params, law).expect("valid params");
            let fresh = meanfield::solve(&model, &m0, theta, &opts).expect("solves");
            let reused =
                meanfield::solve_with(&model, &m0, theta, &opts, &mut ws).expect("solves");
            let (a, b) = (fresh.trajectory(), reused.trajectory());
            prop_assert_eq!(a.stats(), b.stats(), "step statistics differ on {}", name);
            let (ca, cb) = (a.curve(), b.curve());
            prop_assert_eq!(ca.knots(), cb.knots(), "knot times differ on {}", name);
            for k in 0..ca.knots().len() {
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(
                    bits(ca.value_at(k)),
                    bits(cb.value_at(k)),
                    "knot {} values differ on {}", k, name
                );
                prop_assert_eq!(
                    bits(ca.derivative_at(k)),
                    bits(cb.derivative_at(k)),
                    "knot {} derivatives differ on {}", k, name
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Where the steady-regime hand-off replaces the window matrix ODE by
    /// a uniformization of the frozen generator, the window value must
    /// match the matrix ODE's answer to 1e-9 at every time in the settled
    /// regime.
    ///
    /// The generator follows a simplex path that settles exactly at
    /// `t* = 2` (a linear occupancy blend, frozen from then on), mimicking
    /// a mean-field trajectory entering its stationary regime.
    #[test]
    fn steady_uniformization_matches_matrix_ode(
        m_start in occupancy_strategy(),
        m_end in occupancy_strategy(),
        duration in 0.2f64..0.6,
    ) {
        // Everything runs two orders tighter than the 1e-9 claim: the
        // hand-off knot keeps the head integration's own end value, so at
        // default tolerances the comparison would measure the matrix ODE's
        // truncation error rather than the uniformization's.
        let opts = OdeOptions::default().with_tolerances(1e-11, 1e-13);
        for (name, params, law) in virus::table2_settings() {
            let model = virus::model(params, law).expect("valid params");
            let n = model.n_states();
            let gen = FnGenerator::new(n, |t: f64, q: &mut Matrix| {
                let a = (t / 2.0).min(1.0);
                let blend: Vec<f64> = m_start
                    .as_slice()
                    .iter()
                    .zip(m_end.as_slice())
                    .map(|(x, y)| x + (y - x) * a)
                    .collect();
                let m = Occupancy::new(blend).expect("simplex is convex");
                let qm = model.generator_at(&m).expect("generator");
                for i in 0..n {
                    for j in 0..n {
                        q[(i, j)] = qm[(i, j)];
                    }
                }
            });
            let tail = ConstantTail { t_star: 2.0, eps: 1e-13 };
            let init = transition_matrix(&gen, 0.0, duration, &opts).expect("initial window");
            let fast = propagate_window_from(&gen, &init, 0.0, 6.0, duration, &opts, Some(&tail))
                .expect("propagates");
            // The matrix-ODE reference: a direct Eq. 5 solve over
            // [t, t + T]. For t >= t* the generator is frozen, so one
            // reference serves the whole settled regime.
            let reference = transition_matrix(&gen, 2.0, duration, &opts).expect("reference");
            // The settled end of the trajectory is the raw uniformization
            // output W = e^{QT}: this is the value that replaced the
            // matrix ODE, and it must agree to 1e-9.
            let w = flat_to_matrix(n, &fast.eval(6.0));
            for r in 0..n {
                for c in 0..n {
                    let diff = (w[(r, c)] - reference[(r, c)]).abs();
                    prop_assert!(
                        diff < 1e-9,
                        "{}: uniformized window({}, {}) differs from the matrix ODE by {}",
                        name, r, c, diff
                    );
                }
            }
            // Across the hand-off blend the curve interpolates between the
            // head integration's own end value and W, so the agreement
            // there is bounded by the window equation's conditioning (its
            // error modes grow like differences of generator eigenvalues —
            // the very reason the uniformized tail is preferable), not by
            // the uniformization error. A coarse bound catches gross
            // hand-off mistakes without re-measuring the ODE's drift.
            // (On stiff Setting 2 the head's end value alone is ~1e-5 off
            // at rtol 1e-11 — eigenvalue spreads near 60 amplify injected
            // error by e^{60 (t - t_err)} — hence the coarse bound.)
            for i in 0..=8 {
                let t = 2.0 + 4.0 * f64::from(i) / 8.0;
                let w = flat_to_matrix(n, &fast.eval(t));
                for r in 0..n {
                    for c in 0..n {
                        let diff = (w[(r, c)] - reference[(r, c)]).abs();
                        prop_assert!(
                            diff < 1e-3,
                            "{}: window({}, {}) at t = {} is {} away from the settled value",
                            name, r, c, t, diff
                        );
                    }
                }
            }
        }
    }
}

/// Every model the drift claims cover: the four Table II settings, the
/// bounded queue at `K = 9` and `K = 128`, and the parsed `.mf` files.
fn drift_models() -> Vec<(String, LocalModel)> {
    let mut models: Vec<(String, LocalModel)> = virus::table2_settings()
        .into_iter()
        .map(|(name, params, law)| (name.to_string(), virus::model(params, law).expect("valid")))
        .collect();
    for cap in [8, 127] {
        let params = queueing::Params {
            cap,
            ..queueing::default_params()
        };
        models.push((
            format!("queueing K={}", cap + 1),
            queueing::model(params).expect("valid"),
        ));
    }
    for file in ["gossip.mf", "supermarket.mf"] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../modelfiles")
            .join(file);
        let model = ModelFile::load(&path)
            .expect("parses")
            .instantiate()
            .expect("instantiates");
        models.push((file.to_string(), model));
    }
    models
}

/// A xorshift64 stream for drawing occupancies of any dimension.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A random occupancy with about a third of its components exactly zero.
fn random_occupancy(k: usize, rng: &mut Rng) -> Occupancy {
    let mut v: Vec<f64> = (0..k)
        .map(|_| {
            if rng.unit() < 1.0 / 3.0 {
                0.0
            } else {
                rng.unit()
            }
        })
        .collect();
    v[0] += 1e-3;
    let s: f64 = v.iter().sum();
    Occupancy::new(v.iter().map(|x| x / s).collect()).expect("normalized")
}

/// Every simplex corner plus eight random occupancies.
fn occupancies(k: usize, rng: &mut Rng) -> Vec<Occupancy> {
    let corners = (0..k).map(|i| Occupancy::unit(k, i).expect("corner"));
    let random: Vec<Occupancy> = (0..8).map(|_| random_occupancy(k, rng)).collect();
    corners.chain(random).collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The drift over the transition pattern is the dense `m̄·Q(m̄)` bit for
    /// bit, through `drift` and through the strided `write_drift` kernel,
    /// which leaves every other lane of the array untouched.
    #[test]
    fn sparse_drift_is_bitwise_the_dense_product(seed in 1u64..u64::MAX) {
        let mut rng = Rng(seed);
        for (name, model) in drift_models() {
            let k = model.n_states();
            let mut rates = vec![0.0; model.sparsity().0.len()];
            for m in occupancies(k, &mut rng) {
                let q = model.generator_at(&m).expect("finite rates");
                let dense = q.vec_mul(m.as_slice()).expect("dimension");
                let sparse = model.drift(&m).expect("finite rates");
                prop_assert_eq!(bits(&sparse), bits(&dense), "{} drift at {:?}", name, m.as_slice());
                let (stride, lane) = (3, 1);
                let mut dy = vec![7.0; k * stride];
                model.write_drift(&m, &mut rates, &mut dy[lane..], stride);
                for (idx, &v) in dy.iter().enumerate() {
                    let expected = if idx % stride == lane { dense[idx / stride] } else { 7.0 };
                    prop_assert_eq!(v.to_bits(), expected.to_bits(), "{} write_drift slot {}", name, idx);
                }
            }
        }
    }
}

type Rate = Arc<dyn Fn(&Occupancy) -> f64 + Send + Sync>;

/// A generated local model whose rates are affine in `m̄` with signed
/// coefficients, so they go negative off the simplex (and on it, where
/// the clamp zeroes them); duplicate pairs and states without outgoing
/// transitions occur. Returns the model and its raw rate functions for
/// the dense reference.
fn signed_model(k: usize, rng: &mut Rng) -> (LocalModel, Vec<(usize, usize, Rate)>) {
    let mut transitions: Vec<(usize, usize, Rate)> = Vec::new();
    for _ in 0..3 * k {
        let from = (rng.unit() * k as f64) as usize % k;
        let to = (from + 1 + (rng.unit() * (k - 1) as f64) as usize % (k - 1)) % k;
        let bias = rng.unit() - 0.3;
        let coef: Vec<f64> = (0..k).map(|_| 2.0 * rng.unit() - 1.0).collect();
        let rate: Rate = Arc::new(move |m: &Occupancy| {
            bias + coef
                .iter()
                .zip(m.as_slice())
                .map(|(c, x)| c * x)
                .sum::<f64>()
        });
        transitions.push((from, to, rate));
    }
    let mut builder = LocalModel::builder();
    for s in 0..k {
        builder = builder.state(format!("s{s}"), [format!("l{s}")]);
    }
    for (from, to, rate) in &transitions {
        let rate = Arc::clone(rate);
        builder = builder
            .transition(
                format!("s{from}"),
                format!("s{to}"),
                move |m: &Occupancy| rate(m),
            )
            .expect("no self-loop");
    }
    (builder.build().expect("valid"), transitions)
}

/// The dense unclamped drift: raw rates into a `K × K` generator, the
/// diagonal as minus the off-diagonal row sum, then `m̄·Q`.
fn dense_unclamped(k: usize, transitions: &[(usize, usize, Rate)], m: &Occupancy) -> Vec<f64> {
    let mut q = Matrix::zeros(k, k);
    for (from, to, rate) in transitions {
        q[(*from, *to)] += rate(m);
    }
    for i in 0..k {
        let row_sum: f64 = (0..k).filter(|&j| j != i).map(|j| q[(i, j)]).sum();
        q[(i, i)] = -row_sum;
    }
    q.vec_mul(m.as_slice()).expect("dimension")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The Newton Jacobian's probes step off the simplex, where rates go
    /// negative: `drift_unclamped` must still match the dense reference
    /// bit for bit.
    #[test]
    fn unclamped_drift_matches_dense_off_simplex(seed in 1u64..u64::MAX, k in 2usize..8) {
        let mut rng = Rng(seed);
        let (model, transitions) = signed_model(k, &mut rng);
        let mut saw_negative = false;
        for _ in 0..16 {
            let probe: Vec<f64> = (0..k)
                .map(|_| if rng.unit() < 0.2 { 0.0 } else { 1.4 * rng.unit() - 0.2 })
                .collect();
            let m = Occupancy::new_unchecked(probe.clone());
            saw_negative |= transitions.iter().any(|(_, _, rate)| rate(&m) < 0.0);
            let sparse = model.drift_unclamped(&m).expect("finite rates");
            let dense = dense_unclamped(k, &transitions, &m);
            prop_assert_eq!(bits(&sparse), bits(&dense), "unclamped at {:?}", m.as_slice());
            // Projected onto the simplex, the clamped drift still matches
            // the dense product of the clamped generator.
            let mut mass: Vec<f64> = probe.iter().map(|x| x.max(0.0)).collect();
            mass[0] += 1e-3;
            let m = Occupancy::project(mass).expect("projects");
            let dense = model.generator_at(&m).expect("finite").vec_mul(m.as_slice()).expect("dim");
            prop_assert_eq!(bits(&model.drift(&m).expect("finite")), bits(&dense), "clamped at {:?}", m.as_slice());
        }
        prop_assert!(saw_negative, "no probe produced a negative rate");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every active lane of the `K × B` right-hand side equals the scalar
    /// right-hand side on that column bit for bit, at widths 1, 2 and 12;
    /// lanes include off-simplex columns (projected) and an all-zero column
    /// (the NaN signal), and inactive lanes stay untouched.
    #[test]
    fn rhs_batch_lanes_match_scalar_rhs(seed in 1u64..u64::MAX) {
        let mut rng = Rng(seed);
        for (name, model) in drift_models() {
            let sys = MeanFieldSystem::new(&model);
            let k = model.n_states();
            for width in [1usize, 2, 12] {
                let columns: Vec<Vec<f64>> = (0..width)
                    .map(|b| match b {
                        5 => vec![0.0; k],
                        7 => (0..k).map(|_| 1.001 * rng.unit() - 0.001).collect(),
                        _ => random_occupancy(k, &mut rng).into_vec(),
                    })
                    .collect();
                let active: Vec<bool> = (0..width).map(|b| b != 3).collect();
                let mut y = vec![0.0; k * width];
                for (b, col) in columns.iter().enumerate() {
                    for (i, &v) in col.iter().enumerate() {
                        y[i * width + b] = v;
                    }
                }
                let mut dy = vec![-3.0; k * width];
                sys.rhs_batch(&vec![0.0; width], &active, &y, &mut dy, width);
                let mut scalar = vec![0.0; k];
                for (b, col) in columns.iter().enumerate() {
                    let lane: Vec<f64> = (0..k).map(|i| dy[i * width + b]).collect();
                    if active[b] {
                        sys.rhs(0.0, col, &mut scalar);
                        prop_assert_eq!(bits(&lane), bits(&scalar), "{} width {} lane {}", name, width, b);
                    } else {
                        prop_assert!(lane.iter().all(|&v| v == -3.0), "{} inactive lane {} written", name, b);
                    }
                }
            }
        }
    }
}
