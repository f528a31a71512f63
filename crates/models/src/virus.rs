//! The paper's running example: computer-virus spread (Fig. 2, Example 1).
//!
//! Three local states: `s1` not infected, `s2` infected & inactive, `s3`
//! infected & active, with atomic propositions `not_infected`, `infected`,
//! `inactive`, `active`. Rates `k2..k5` are constants; the infection rate
//! `k1*` depends on the overall state through one of two laws (Sec. II-A):
//!
//! * [`InfectionLaw::SmartVirus`] — `k1* = k1·m3/m1`: all attacks of the
//!   active spreaders are aimed at not-yet-infected machines (the paper's
//!   default; makes the *overall* ODE linear — Eq. 21);
//! * [`InfectionLaw::Epidemic`] — `k1* = k1·m3`: classical proportional
//!   mixing.

use mfcsl_core::{CoreError, LocalModel, Occupancy};
use serde::{Deserialize, Serialize};

/// State index of `s1` (not infected).
pub const NOT_INFECTED: usize = 0;
/// State index of `s2` (infected, inactive).
pub const INACTIVE: usize = 1;
/// State index of `s3` (infected, active).
pub const ACTIVE: usize = 2;

/// The five rate constants of Fig. 2 / Table II.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Attack rate `k1` of one active infected computer.
    pub k1: f64,
    /// Recovery rate `k2` of an inactive infected computer.
    pub k2: f64,
    /// Activation rate `k3` (inactive → active).
    pub k3: f64,
    /// Deactivation rate `k4` (active → inactive).
    pub k4: f64,
    /// Recovery rate `k5` of an active infected computer.
    pub k5: f64,
}

/// Table II, Setting 1.
#[must_use]
pub fn setting_1() -> Params {
    Params {
        k1: 0.9,
        k2: 0.1,
        k3: 0.01,
        k4: 0.3,
        k5: 0.3,
    }
}

/// Table II, Setting 2.
#[must_use]
pub fn setting_2() -> Params {
    Params {
        k1: 5.0,
        k2: 0.02,
        k3: 0.01,
        k4: 0.5,
        k5: 0.5,
    }
}

/// Setting 1 with `k2` and `k3` exchanged.
///
/// With Table II as printed the `(m2, m3)` subsystem of Eq. 21 has a
/// strictly negative spectrum, so the infection *decays* and the expected
/// probability of Figure 3 cannot cross its 0.3 bound from below; swapping
/// the two small constants produces the growing epidemic the figure shows.
/// The benches run both variants and EXPERIMENTS.md reports which one
/// reproduces each published number.
#[must_use]
pub fn setting_1_swapped() -> Params {
    Params {
        k1: 0.9,
        k2: 0.01,
        k3: 0.1,
        k4: 0.3,
        k5: 0.3,
    }
}

/// How the infection rate `k1*` depends on the overall state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InfectionLaw {
    /// `k1* = k1 · m3 / m1` — attacks target not-infected machines only.
    SmartVirus,
    /// `k1* = k1 · m3` — proportional (epidemiological) mixing.
    Epidemic,
}

/// Builds the virus local model.
///
/// # Errors
///
/// Returns [`CoreError::InvalidModel`] for negative or non-finite rate
/// constants.
///
/// # Example
///
/// ```
/// use mfcsl_models::virus;
/// use mfcsl_core::Occupancy;
///
/// # fn main() -> Result<(), mfcsl_core::CoreError> {
/// let model = virus::model(virus::setting_1(), virus::InfectionLaw::SmartVirus)?;
/// let m = Occupancy::new(vec![0.8, 0.15, 0.05])?;
/// let q = model.generator_at(&m)?;
/// assert!((q[(0, 1)] - 0.9 * 0.05 / 0.8).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn model(params: Params, law: InfectionLaw) -> Result<LocalModel, CoreError> {
    for (name, v) in [
        ("k1", params.k1),
        ("k2", params.k2),
        ("k3", params.k3),
        ("k4", params.k4),
        ("k5", params.k5),
    ] {
        if !v.is_finite() || v < 0.0 {
            return Err(CoreError::InvalidModel(format!(
                "rate {name} must be finite and non-negative, got {v}"
            )));
        }
    }
    let k1 = params.k1;
    let infection = move |m: &Occupancy| match law {
        InfectionLaw::SmartVirus => {
            // Guard the m1 → 0 corner: as m1 → 0 the per-machine rate
            // diverges (every remaining machine is attacked by everyone).
            // The floor keeps the generator finite and the ratio cap keeps
            // the local Kolmogorov equations non-stiff once the model has
            // left its validity domain (the overall ODE is exactly linear
            // for this law either way).
            k1 * (m[ACTIVE] / m[NOT_INFECTED].max(1e-6)).min(1e3)
        }
        InfectionLaw::Epidemic => k1 * m[ACTIVE],
    };
    LocalModel::builder()
        .state("s1", ["not_infected"])
        .state("s2", ["infected", "inactive"])
        .state("s3", ["infected", "active"])
        .transition("s1", "s2", infection)?
        .constant_transition("s2", "s1", params.k2)?
        .constant_transition("s2", "s3", params.k3)?
        .constant_transition("s3", "s2", params.k4)?
        .constant_transition("s3", "s1", params.k5)?
        .build()
}

/// The occupancy vector of the paper's first worked example
/// (`m̄ = (0.8, 0.15, 0.05)`).
///
/// # Errors
///
/// Never fails in practice (the constants form a distribution).
pub fn example_occupancy() -> Result<Occupancy, CoreError> {
    Occupancy::new(vec![0.8, 0.15, 0.05])
}

/// The four parameter/law combinations the Table II experiments exercise:
/// both printed Setting-1 variants and Setting 2 under the smart-virus
/// attack law, plus Setting 2 under proportional (epidemic) mixing.
///
/// The equivalence property tests sweep every hot-path kernel across this
/// whole family, so an optimization that is only correct for one rate
/// regime (slow Setting 1, stiff Setting 2) cannot slip through.
#[must_use]
pub fn table2_settings() -> [(&'static str, Params, InfectionLaw); 4] {
    [
        ("setting_1", setting_1(), InfectionLaw::SmartVirus),
        (
            "setting_1_swapped",
            setting_1_swapped(),
            InfectionLaw::SmartVirus,
        ),
        ("setting_2", setting_2(), InfectionLaw::SmartVirus),
        ("setting_2_epidemic", setting_2(), InfectionLaw::Epidemic),
    ]
}

/// The occupancy vector of the paper's second worked example
/// (`m̄ = (0.85, 0.1, 0.05)`).
///
/// # Errors
///
/// Never fails in practice (the constants form a distribution).
pub fn example_occupancy_2() -> Result<Occupancy, CoreError> {
    Occupancy::new(vec![0.85, 0.1, 0.05])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfcsl_core::meanfield;
    use mfcsl_ode::OdeOptions;

    #[test]
    fn smart_virus_drift_matches_eq21() {
        let p = setting_1();
        let m = example_occupancy().unwrap();
        let model = model(p, InfectionLaw::SmartVirus).unwrap();
        let d = model.drift(&m).unwrap();
        // Eq. 21 of the paper.
        let expected = [
            -p.k1 * m[2] + p.k2 * m[1] + p.k5 * m[2],
            (p.k1 + p.k4) * m[2] - (p.k2 + p.k3) * m[1],
            p.k3 * m[1] - (p.k4 + p.k5) * m[2],
        ];
        for (a, b) in d.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn epidemic_law_differs() {
        let p = setting_1();
        let m = example_occupancy().unwrap();
        let smart = model(p, InfectionLaw::SmartVirus).unwrap();
        let epi = model(p, InfectionLaw::Epidemic).unwrap();
        let qs = smart.generator_at(&m).unwrap();
        let qe = epi.generator_at(&m).unwrap();
        assert!((qs[(0, 1)] - p.k1 * m[2] / m[0]).abs() < 1e-14);
        assert!((qe[(0, 1)] - p.k1 * m[2]).abs() < 1e-14);
        assert!(qs[(0, 1)] > qe[(0, 1)]);
    }

    #[test]
    fn setting_1_infection_decays_swapped_grows() {
        let m0 = example_occupancy().unwrap();
        let horizon = 20.0;
        let infected_end = |p: Params| {
            let model = model(p, InfectionLaw::SmartVirus).unwrap();
            let sol = meanfield::solve(&model, &m0, horizon, &OdeOptions::default()).unwrap();
            let m = sol.occupancy_at(horizon);
            m[1] + m[2]
        };
        let printed = infected_end(setting_1());
        let swapped = infected_end(setting_1_swapped());
        assert!(
            printed < 0.2,
            "printed Setting 1 should decay, got infected fraction {printed}"
        );
        assert!(
            swapped > 0.4,
            "swapped Setting 1 should grow, got infected fraction {swapped}"
        );
    }

    #[test]
    fn corner_occupancy_is_safe() {
        // m1 = 0: the smart-virus guard must keep rates finite.
        let p = setting_2();
        let model = model(p, InfectionLaw::SmartVirus).unwrap();
        let corner = Occupancy::new(vec![0.0, 0.5, 0.5]).unwrap();
        let q = model.generator_at(&corner).unwrap();
        assert!(q.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = setting_1();
        p.k2 = -1.0;
        assert!(model(p, InfectionLaw::SmartVirus).is_err());
        p = setting_1();
        p.k1 = f64::NAN;
        assert!(model(p, InfectionLaw::Epidemic).is_err());
    }

    #[test]
    fn labels_match_the_paper() {
        let model = model(setting_1(), InfectionLaw::SmartVirus).unwrap();
        let l = model.labeling();
        assert!(l.has(NOT_INFECTED, "not_infected"));
        assert!(l.has(INACTIVE, "infected") && l.has(INACTIVE, "inactive"));
        assert!(l.has(ACTIVE, "infected") && l.has(ACTIVE, "active"));
        assert_eq!(l.states_with("infected"), vec![INACTIVE, ACTIVE]);
    }
}
