//! Round-trip tests: the shipped `.mf` mirrors of the programmatic
//! models must agree with `crates/models` exactly — same labels, same
//! generator entries (bitwise) at sample occupancies — so a daemon
//! serving the model files is checking the same model as code built
//! against `mfcsl-models`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use mfcsl_core::{LocalModel, Occupancy};
use mfcsl_modelfile::model_file::ModelFile;

fn load(name: &str) -> ModelFile {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../modelfiles")
        .join(name);
    ModelFile::load(&path).expect("shipped model file parses")
}

/// Asserts both models assign identical label sets to every state and
/// produce bitwise-identical generator matrices at each occupancy.
fn assert_same_model(parsed: &LocalModel, programmatic: &LocalModel, occupancies: &[Vec<f64>]) {
    assert_eq!(parsed.n_states(), programmatic.n_states());
    let n = parsed.n_states();
    let alphabet: std::collections::BTreeSet<String> = parsed
        .labeling()
        .alphabet()
        .into_iter()
        .chain(programmatic.labeling().alphabet())
        .collect();
    for i in 0..n {
        for label in &alphabet {
            assert_eq!(
                parsed.labeling().has(i, label),
                programmatic.labeling().has(i, label),
                "label `{label}` disagrees on state {i}"
            );
        }
    }
    for m0 in occupancies {
        let m = Occupancy::new(m0.clone()).expect("valid sample occupancy");
        let q_parsed = parsed.generator_at(&m).expect("parsed generator");
        let q_prog = programmatic
            .generator_at(&m)
            .expect("programmatic generator");
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (q_parsed[(i, j)], q_prog[(i, j)]);
                assert!(
                    a.to_bits() == b.to_bits(),
                    "generator entry ({i},{j}) at m0={m0:?}: parsed {a:e} vs programmatic {b:e}"
                );
            }
        }
    }
}

#[test]
fn gossip_mf_matches_programmatic_model() {
    let file = load("gossip.mf");
    let parsed = file.instantiate().expect("gossip.mf instantiates");
    let programmatic = mfcsl_models::gossip::model(mfcsl_models::gossip::default_params()).unwrap();
    assert_same_model(
        &parsed,
        &programmatic,
        &[
            vec![0.95, 0.05, 0.0],
            vec![0.6, 0.3, 0.1],
            vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        ],
    );
}

#[test]
fn gossip_mf_matches_with_forget_override() {
    // The file's `forget` parameter re-creates the forgetting variant.
    let file = load("gossip.mf");
    let overrides: BTreeMap<String, f64> = [("forget".to_string(), 0.2)].into();
    let parsed = file
        .instantiate_with(&overrides)
        .expect("override instantiates");
    let programmatic = mfcsl_models::gossip::model(mfcsl_models::gossip::Params {
        push: 1.0,
        pull: 1.0,
        stifle: 0.5,
        forget: 0.2,
    })
    .unwrap();
    assert_same_model(&parsed, &programmatic, &[vec![0.6, 0.3, 0.1]]);
}

#[test]
fn supermarket_mf_matches_programmatic_model() {
    let file = load("supermarket.mf");
    let parsed = file.instantiate().expect("supermarket.mf instantiates");
    let programmatic = mfcsl_models::supermarket::model(mfcsl_models::supermarket::Params {
        lambda: 0.7,
        mu: 1.0,
        d: 2,
        cap: 6,
    })
    .unwrap();
    // Every component stays above the 1e-9 vanishing-mass threshold, so
    // the file's max(m_i, 1e-9) guard and the programmatic branch agree
    // bitwise.
    assert_same_model(
        &parsed,
        &programmatic,
        &[
            vec![0.3, 0.25, 0.2, 0.1, 0.08, 0.05, 0.02],
            vec![0.5, 0.2, 0.1, 0.08, 0.06, 0.04, 0.02],
            vec![
                1.0 / 7.0,
                1.0 / 7.0,
                1.0 / 7.0,
                1.0 / 7.0,
                1.0 / 7.0,
                1.0 / 7.0,
                1.0 - 6.0 / 7.0,
            ],
        ],
    );
}

#[test]
fn queueing_mf_matches_programmatic_model() {
    let file = load("queueing.mf");
    let parsed = file.instantiate().expect("queueing.mf instantiates");
    let programmatic =
        mfcsl_models::queueing::model(mfcsl_models::queueing::default_params()).unwrap();
    assert_same_model(
        &parsed,
        &programmatic,
        &[
            vec![0.4, 0.2, 0.1, 0.08, 0.07, 0.06, 0.05, 0.03, 0.01],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            {
                let mut uniform = vec![1.0 / 9.0; 9];
                uniform[8] = 1.0 - 8.0 / 9.0;
                uniform
            },
        ],
    );
}

#[test]
fn queueing_mf_matches_with_retry_override() {
    let file = load("queueing.mf");
    let overrides: BTreeMap<String, f64> = [("retry".to_string(), 2.0)].into();
    let parsed = file
        .instantiate_with(&overrides)
        .expect("override instantiates");
    let programmatic = mfcsl_models::queueing::model(mfcsl_models::queueing::Params {
        retry: 2.0,
        ..mfcsl_models::queueing::default_params()
    })
    .unwrap();
    assert_same_model(
        &parsed,
        &programmatic,
        &[vec![0.4, 0.2, 0.1, 0.08, 0.07, 0.06, 0.05, 0.03, 0.01]],
    );
}

#[test]
fn gossip_mf_batched_drift_is_bitwise_identical_to_programmatic_serial() {
    // A model-file-compiled drift rides the same K×B batched kernel as a
    // programmatic one: solving a sweep of initial occupancies as one
    // per-lane batch of the parsed model must reproduce, bit for bit, the
    // serial solves of the programmatic model.
    use mfcsl_core::meanfield;
    use mfcsl_ode::{BatchMode, OdeOptions, Recovery};

    let parsed = load("gossip.mf")
        .instantiate()
        .expect("gossip.mf instantiates");
    let programmatic = mfcsl_models::gossip::model(mfcsl_models::gossip::default_params()).unwrap();
    let m0s: Vec<Occupancy> = [
        vec![0.95, 0.04, 0.01],
        vec![0.6, 0.3, 0.1],
        vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    ]
    .into_iter()
    .map(|m| Occupancy::new(m).expect("valid sample occupancy"))
    .collect();
    let opts = OdeOptions::default();
    let theta = 2.0;

    let sweep = meanfield::solve_batch(&parsed, &m0s, theta, &opts, BatchMode::PerLane)
        .expect("batched sweep of the parsed model solves");
    assert_eq!(sweep.stats.width, m0s.len());
    assert_eq!(sweep.stats.detached, 0);
    for (lane, (m0, result)) in m0s.iter().zip(&sweep.lanes).enumerate() {
        let (batched, recovery) = result.as_ref().expect("lane solves");
        assert_eq!(*recovery, Recovery::None);
        let serial = meanfield::solve(&programmatic, m0, theta, &opts).expect("serial solves");
        let (cb, cs) = (batched.trajectory().curve(), serial.trajectory().curve());
        assert_eq!(cs.knots(), cb.knots(), "lane {lane}: knot times differ");
        for k in 0..cs.knots().len() {
            for (a, b) in cs.value_at(k).iter().zip(cb.value_at(k)) {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "lane {lane} knot {k}: parsed-batched {b:e} vs programmatic-serial {a:e}"
                );
            }
        }
    }
}

#[test]
fn supermarket_mf_matches_with_lambda_override() {
    let file = load("supermarket.mf");
    let overrides: BTreeMap<String, f64> = [("lambda".to_string(), 0.9)].into();
    let parsed = file
        .instantiate_with(&overrides)
        .expect("override instantiates");
    let programmatic = mfcsl_models::supermarket::model(mfcsl_models::supermarket::Params {
        lambda: 0.9,
        mu: 1.0,
        d: 2,
        cap: 6,
    })
    .unwrap();
    assert_same_model(
        &parsed,
        &programmatic,
        &[vec![0.3, 0.25, 0.2, 0.1, 0.08, 0.05, 0.02]],
    );
}
