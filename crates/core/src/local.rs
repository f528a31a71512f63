//! The local model `𝓜ˡ` (Def. 1 of the paper).
//!
//! A [`LocalModel`] describes one object of the population: a finite set of
//! named, labeled states and transition *rate functions*
//! `S^l × S^l × S^o → ℝ` — each transition's rate may depend on the current
//! occupancy vector of the whole system.

use std::sync::Arc;

use mfcsl_ctmc::{Ctmc, Labeling};
use mfcsl_math::Matrix;

use crate::{CoreError, Occupancy};

/// A transition rate as a function of the global occupancy vector.
pub type RateFn = Arc<dyn Fn(&Occupancy) -> f64 + Send + Sync>;

struct Transition {
    from: usize,
    to: usize,
    rate: RateFn,
}

/// The local (individual-object) model of a mean-field system.
///
/// # Example
///
/// ```
/// use mfcsl_core::{LocalModel, Occupancy};
///
/// # fn main() -> Result<(), mfcsl_core::CoreError> {
/// // The paper's virus model (Fig. 2): infection rate depends on the
/// // fraction of active spreaders.
/// let k1 = 0.9;
/// let model = LocalModel::builder()
///     .state("s1", ["not_infected"])
///     .state("s2", ["infected", "inactive"])
///     .state("s3", ["infected", "active"])
///     .transition("s1", "s2", move |m: &Occupancy| {
///         if m[0] > 0.0 { k1 * m[2] / m[0] } else { 0.0 }
///     })?
///     .constant_transition("s2", "s1", 0.1)?
///     .constant_transition("s2", "s3", 0.01)?
///     .constant_transition("s3", "s2", 0.3)?
///     .constant_transition("s3", "s1", 0.3)?
///     .build()?;
/// let m = Occupancy::new(vec![0.8, 0.15, 0.05])?;
/// let q = model.generator_at(&m)?;
/// assert!((q[(0, 1)] - 0.9 * 0.05 / 0.8).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub struct LocalModel {
    names: Vec<String>,
    labeling: Labeling,
    transitions: Vec<Transition>,
    /// The off-diagonal sparsity pattern of `Q(m̄)`: unique `(from, to)`
    /// pairs in first-appearance order, precomputed at build time so the
    /// sparse checking lane can query the topology without evaluating any
    /// rate function.
    pattern_from: Vec<usize>,
    pattern_to: Vec<usize>,
    /// Per transition, the index of its `(from, to)` pair in the pattern
    /// (duplicate pairs accumulate into one slot).
    pattern_slot: Vec<usize>,
    /// The same pattern as a by-source CSR for the drift kernel: row `i`'s
    /// targets are `csr_to[csr_row[i]..csr_row[i + 1]]`, ascending.
    csr_row: Vec<usize>,
    csr_to: Vec<usize>,
    /// Per transition, the CSR position of its `(from, to)` pair.
    csr_pos: Vec<usize>,
}

impl LocalModel {
    /// Starts an empty builder.
    #[must_use]
    pub fn builder() -> LocalModelBuilder {
        LocalModelBuilder::default()
    }

    /// Number of local states `K`.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.names.len()
    }

    /// State names.
    #[must_use]
    pub fn state_names(&self) -> &[String] {
        &self.names
    }

    /// The labeling function `L : S^l → 2^LAP`.
    #[must_use]
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// Looks up a state index by name.
    #[must_use]
    pub fn state_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Evaluates the generator `Q(m̄)` at an occupancy vector.
    ///
    /// Negative rate values are clamped to zero (rate functions like
    /// `k·m₃/m₁` can produce harmless `-0.0`-scale noise near the simplex
    /// boundary); non-finite values are reported as errors.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] on a dimension mismatch and
    /// [`CoreError::InvalidRate`] if a rate function returns NaN or ±∞.
    pub fn generator_at(&self, m: &Occupancy) -> Result<Matrix, CoreError> {
        self.check_len(m)?;
        let n = self.n_states();
        let mut q = Matrix::zeros(n, n);
        for tr in &self.transitions {
            let rate = (tr.rate)(m);
            if !rate.is_finite() {
                return Err(CoreError::InvalidRate {
                    from: self.names[tr.from].clone(),
                    to: self.names[tr.to].clone(),
                    value: rate,
                });
            }
            q[(tr.from, tr.to)] += rate.max(0.0);
        }
        for i in 0..n {
            let row_sum: f64 = (0..n).filter(|&j| j != i).map(|j| q[(i, j)]).sum();
            q[(i, i)] = -row_sum;
        }
        Ok(q)
    }

    /// Writes `Q(m̄)` into a caller-provided matrix without reporting rate
    /// errors (non-finite rates become zero) — the allocation-free inner
    /// loop used by the ODE right-hand sides, where errors surface as
    /// non-finite derivatives instead.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not `K × K` or `m.len() != K`.
    pub fn write_generator_at(&self, m: &Occupancy, q: &mut Matrix) {
        let n = self.n_states();
        assert_eq!(m.len(), n, "occupancy has wrong dimension");
        assert!(q.rows() == n && q.cols() == n, "matrix has wrong shape");
        // Slice-indexed throughout: this is the innermost call of every
        // mean-field RHS evaluation, so per-entry `Index` bounds checks are
        // measurable. The accumulation order matches the checked variant
        // exactly.
        let qs = q.as_mut_slice();
        qs.fill(0.0);
        for tr in &self.transitions {
            let rate = (tr.rate)(m);
            if rate.is_finite() && rate > 0.0 {
                qs[tr.from * n + tr.to] += rate;
            }
        }
        for i in 0..n {
            let row = &qs[i * n..(i + 1) * n];
            let mut row_sum = 0.0;
            for (j, &v) in row.iter().enumerate() {
                if j != i {
                    row_sum += v;
                }
            }
            qs[i * n + i] = -row_sum;
        }
    }

    /// The fixed off-diagonal transition topology of `Q(m̄)`: parallel
    /// `(from, to)` slices with every pair unique, in first-appearance
    /// order. Every off-diagonal entry outside the pattern is zero at
    /// every occupancy — this is what lets the checking pipeline run
    /// matrix-free at large `K`.
    #[must_use]
    pub fn sparsity(&self) -> (&[usize], &[usize]) {
        (&self.pattern_from, &self.pattern_to)
    }

    /// Writes the off-diagonal rates at occupancy `m̄` into `rates`, in the
    /// order of [`LocalModel::sparsity`]'s pattern, with the same clamping
    /// as [`LocalModel::write_generator_at`] (non-finite and non-positive
    /// evaluations contribute zero; duplicate pairs accumulate).
    ///
    /// # Panics
    ///
    /// Panics if `rates.len()` differs from the pattern length or
    /// `m.len() != K`.
    pub fn write_rates_at(&self, m: &Occupancy, rates: &mut [f64]) {
        assert_eq!(m.len(), self.n_states(), "occupancy has wrong dimension");
        assert_eq!(
            rates.len(),
            self.pattern_from.len(),
            "rate buffer has wrong length"
        );
        rates.fill(0.0);
        for (tr, &slot) in self.transitions.iter().zip(&self.pattern_slot) {
            let rate = (tr.rate)(m);
            if rate.is_finite() && rate > 0.0 {
                rates[slot] += rate;
            }
        }
    }

    /// The forward-reachable closure of `support` under the transition
    /// topology (regardless of rate values — a superset of the states any
    /// trajectory starting in `support` can occupy), sorted ascending.
    /// On-the-fly satisfaction sets are evaluated over this closure only.
    ///
    /// Out-of-range seed states are ignored.
    #[must_use]
    pub fn reachable_closure(&self, support: &[usize]) -> Vec<usize> {
        let n = self.n_states();
        let mut seen = vec![false; n];
        let mut queue: Vec<usize> = Vec::new();
        for &s in support {
            if s < n && !seen[s] {
                seen[s] = true;
                queue.push(s);
            }
        }
        // Adjacency from the unique pattern, bucketed by source state.
        let mut heads = vec![Vec::new(); n];
        for (&f, &t) in self.pattern_from.iter().zip(&self.pattern_to) {
            heads[f].push(t);
        }
        let mut cursor = 0;
        while cursor < queue.len() {
            let s = queue[cursor];
            cursor += 1;
            for &t in &heads[s] {
                if !seen[t] {
                    seen[t] = true;
                    queue.push(t);
                }
            }
        }
        queue.sort_unstable();
        queue
    }

    /// The time-homogeneous chain frozen at occupancy `m̄` — the object the
    /// classic CSL algorithms run on.
    ///
    /// # Errors
    ///
    /// See [`LocalModel::generator_at`].
    pub fn frozen_at(&self, m: &Occupancy) -> Result<Ctmc, CoreError> {
        let q = self.generator_at(m)?;
        Ok(Ctmc::from_parts(
            self.names.clone(),
            q,
            self.labeling.clone(),
        )?)
    }

    /// The mean-field drift `f(m̄) = m̄·Q(m̄)` (the right-hand side of
    /// Eq. 1).
    ///
    /// # Errors
    ///
    /// See [`LocalModel::generator_at`].
    pub fn drift(&self, m: &Occupancy) -> Result<Vec<f64>, CoreError> {
        self.checked_drift(m, true)
    }

    /// Writes the drift `m̄·Q(m̄)` without building `Q(m̄)`: the
    /// allocation-free kernel of every mean-field ODE right-hand side.
    /// Rates are clamped as in [`LocalModel::write_generator_at`]
    /// (non-finite and non-positive evaluations contribute zero), `rates`
    /// is scratch of the pattern's length (`sparsity().0.len()`), and
    /// component `j` lands in `dy[j * stride]`, so a batched caller writes
    /// one lane of a component-major `K × B` array in place.
    ///
    /// The result is bitwise equal to `m̄` times the matrix
    /// `write_generator_at` produces: every `dy[j]` sums its sources in
    /// ascending `i`, and the only terms skipped are `xᵢ·0 = ±0`, which
    /// leave any sum that starts at `+0.0` unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `m.len() != K`, `rates` has the wrong length, or `dy` is
    /// too short for `K` components at `stride`.
    pub fn write_drift(&self, m: &Occupancy, rates: &mut [f64], dy: &mut [f64], stride: usize) {
        assert_eq!(m.len(), self.n_states(), "occupancy has wrong dimension");
        self.fill_rates(m, rates, true);
        self.accumulate_drift(m.as_slice(), rates, dy, stride);
    }

    /// The drift evaluated as the *smooth extension* of the rate formulas:
    /// no clamping of negative rate values and no simplex validation of
    /// `m`. Used for finite-difference Jacobians at boundary fixed points,
    /// where probes step slightly outside the simplex and clamping would
    /// produce spurious zero derivatives.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] on a dimension mismatch and
    /// [`CoreError::InvalidRate`] for non-finite rate values.
    #[doc(hidden)]
    pub fn drift_unclamped(&self, m: &Occupancy) -> Result<Vec<f64>, CoreError> {
        self.checked_drift(m, false)
    }

    fn checked_drift(&self, m: &Occupancy, clamp: bool) -> Result<Vec<f64>, CoreError> {
        let mut rates = vec![0.0; self.csr_to.len()];
        let mut dy = vec![0.0; self.n_states()];
        self.drift_into(m, clamp, &mut rates, &mut dy)?;
        Ok(dy)
    }

    /// [`LocalModel::drift`] (`clamp`) or [`LocalModel::drift_unclamped`]
    /// into caller-owned buffers, for the Newton Jacobian's probes.
    pub(crate) fn drift_into(
        &self,
        m: &Occupancy,
        clamp: bool,
        rates: &mut [f64],
        dy: &mut [f64],
    ) -> Result<(), CoreError> {
        self.check_len(m)?;
        if let Some((t, value)) = self.fill_rates(m, rates, clamp) {
            let tr = &self.transitions[t];
            return Err(CoreError::InvalidRate {
                from: self.names[tr.from].clone(),
                to: self.names[tr.to].clone(),
                value,
            });
        }
        self.accumulate_drift(m.as_slice(), rates, dy, 1);
        Ok(())
    }

    fn check_len(&self, m: &Occupancy) -> Result<(), CoreError> {
        let n = self.n_states();
        if m.len() != n {
            return Err(CoreError::InvalidArgument(format!(
                "occupancy has {} entries, model has {n} states",
                m.len()
            )));
        }
        Ok(())
    }

    /// Evaluates every rate into its CSR slot (duplicate pairs accumulate
    /// in transition order). With `clamp`, non-positive rates contribute
    /// nothing; without, finite rates go in raw. A non-finite rate is left
    /// out either way, and the first one is returned as `(transition,
    /// value)`.
    fn fill_rates(&self, m: &Occupancy, rates: &mut [f64], clamp: bool) -> Option<(usize, f64)> {
        assert_eq!(
            rates.len(),
            self.csr_to.len(),
            "rate buffer has wrong length"
        );
        rates.fill(0.0);
        let mut non_finite = None;
        for (t, (tr, &pos)) in self.transitions.iter().zip(&self.csr_pos).enumerate() {
            let rate = (tr.rate)(m);
            if !rate.is_finite() {
                non_finite = non_finite.or(Some((t, rate)));
            } else if !clamp || rate > 0.0 {
                rates[pos] += rate;
            }
        }
        non_finite
    }

    /// `dy[j·stride] = Σᵢ xᵢ·qᵢⱼ` over the CSR rows in ascending `i`,
    /// skipping `xᵢ == 0` like `Matrix::vec_mul`; the diagonal is minus
    /// the row's rate sum, taken in ascending-target order.
    fn accumulate_drift(&self, x: &[f64], rates: &[f64], dy: &mut [f64], stride: usize) {
        for j in 0..x.len() {
            dy[j * stride] = 0.0;
        }
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = self.csr_row[i]..self.csr_row[i + 1];
            let mut exit = 0.0;
            for (&j, &q) in self.csr_to[row.clone()].iter().zip(&rates[row]) {
                exit += q;
                dy[j * stride] += xi * q;
            }
            dy[i * stride] += xi * -exit;
        }
    }
}

impl std::fmt::Debug for LocalModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalModel")
            .field("names", &self.names)
            .field("n_transitions", &self.transitions.len())
            .finish()
    }
}

/// Incremental builder for [`LocalModel`].
#[derive(Default)]
pub struct LocalModelBuilder {
    names: Vec<String>,
    labels: Vec<Vec<String>>,
    transitions: Vec<(String, String, RateFn)>,
}

impl LocalModelBuilder {
    /// Adds a state with atomic-proposition labels.
    #[must_use]
    pub fn state<I, L>(mut self, name: impl Into<String>, labels: I) -> Self
    where
        I: IntoIterator<Item = L>,
        L: Into<String>,
    {
        self.names.push(name.into());
        self.labels
            .push(labels.into_iter().map(Into::into).collect());
        self
    }

    /// Adds a transition whose rate depends on the occupancy vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidModel`] for a self-loop. Unknown state
    /// names are reported by [`LocalModelBuilder::build`].
    pub fn transition<F>(
        mut self,
        from: impl Into<String>,
        to: impl Into<String>,
        rate: F,
    ) -> Result<Self, CoreError>
    where
        F: Fn(&Occupancy) -> f64 + Send + Sync + 'static,
    {
        let from = from.into();
        let to = to.into();
        if from == to {
            return Err(CoreError::InvalidModel(format!(
                "self-loop on `{from}` is not allowed (Def. 1 eliminates self-loops)"
            )));
        }
        self.transitions.push((from, to, Arc::new(rate)));
        Ok(self)
    }

    /// Adds a transition with a constant rate.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidModel`] for a self-loop or a negative /
    /// non-finite rate.
    pub fn constant_transition(
        self,
        from: impl Into<String>,
        to: impl Into<String>,
        rate: f64,
    ) -> Result<Self, CoreError> {
        if !rate.is_finite() || rate < 0.0 {
            return Err(CoreError::InvalidModel(format!(
                "constant rate must be finite and non-negative, got {rate}"
            )));
        }
        self.transition(from, to, move |_| rate)
    }

    /// Finalizes the model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidModel`] for an empty model or duplicate
    /// state names, and [`CoreError::UnknownState`] for transitions naming
    /// undeclared states.
    pub fn build(self) -> Result<LocalModel, CoreError> {
        if self.names.is_empty() {
            return Err(CoreError::InvalidModel(
                "model must have at least one state".into(),
            ));
        }
        for (i, name) in self.names.iter().enumerate() {
            if self.names[i + 1..].contains(name) {
                return Err(CoreError::InvalidModel(format!(
                    "duplicate state name `{name}`"
                )));
            }
        }
        let index = |name: &str| -> Result<usize, CoreError> {
            self.names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| CoreError::UnknownState(name.to_string()))
        };
        let mut transitions = Vec::with_capacity(self.transitions.len());
        for (from, to, rate) in self.transitions {
            transitions.push(Transition {
                from: index(&from)?,
                to: index(&to)?,
                rate,
            });
        }
        let mut labeling = Labeling::new(self.names.len());
        for (s, labels) in self.labels.iter().enumerate() {
            for l in labels {
                labeling.add(s, l.clone());
            }
        }
        // Precompute the off-diagonal sparsity pattern. K and the
        // transition count are both small enough here that a linear scan
        // per transition is fine (build runs once).
        let mut pattern_from = Vec::new();
        let mut pattern_to = Vec::new();
        let mut pattern_slot = Vec::with_capacity(transitions.len());
        for tr in &transitions {
            let slot = pattern_from
                .iter()
                .zip(&pattern_to)
                .position(|(&f, &t)| f == tr.from && t == tr.to)
                .unwrap_or_else(|| {
                    pattern_from.push(tr.from);
                    pattern_to.push(tr.to);
                    pattern_from.len() - 1
                });
            pattern_slot.push(slot);
        }
        // The by-source CSR: pattern slots sorted by (from, to).
        let mut order: Vec<usize> = (0..pattern_from.len()).collect();
        order.sort_unstable_by_key(|&p| (pattern_from[p], pattern_to[p]));
        let csr_row = (0..=self.names.len())
            .map(|i| order.partition_point(|&p| pattern_from[p] < i))
            .collect();
        let csr_to = order.iter().map(|&p| pattern_to[p]).collect();
        let mut slot_pos = vec![0; order.len()];
        for (pos, &p) in order.iter().enumerate() {
            slot_pos[p] = pos;
        }
        let csr_pos = pattern_slot.iter().map(|&s| slot_pos[s]).collect();
        Ok(LocalModel {
            names: self.names,
            labeling,
            transitions,
            pattern_from,
            pattern_to,
            pattern_slot,
            csr_row,
            csr_to,
            csr_pos,
        })
    }
}

impl std::fmt::Debug for LocalModelBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalModelBuilder")
            .field("names", &self.names)
            .field("n_transitions", &self.transitions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn generator_depends_on_occupancy() {
        let model = sis();
        let m = Occupancy::new(vec![0.7, 0.3]).unwrap();
        let q = model.generator_at(&m).unwrap();
        assert!((q[(0, 1)] - 0.6).abs() < 1e-15);
        assert!((q[(0, 0)] + 0.6).abs() < 1e-15);
        assert_eq!(q[(1, 0)], 1.0);
        let m2 = Occupancy::new(vec![0.9, 0.1]).unwrap();
        let q2 = model.generator_at(&m2).unwrap();
        assert!((q2[(0, 1)] - 0.2).abs() < 1e-15);
    }

    #[test]
    fn drift_matches_hand_computation() {
        // dm/dt = m Q(m): for SIS, dm_i/dt = 2 m_s m_i - m_i.
        let model = sis();
        let m = Occupancy::new(vec![0.7, 0.3]).unwrap();
        let d = model.drift(&m).unwrap();
        let expected_i = 2.0 * 0.7 * 0.3 - 0.3;
        assert!((d[1] - expected_i).abs() < 1e-14);
        assert!((d[0] + expected_i).abs() < 1e-14);
    }

    #[test]
    fn frozen_chain_is_valid() {
        let model = sis();
        let m = Occupancy::new(vec![0.5, 0.5]).unwrap();
        let ctmc = model.frozen_at(&m).unwrap();
        assert_eq!(ctmc.n_states(), 2);
        assert!(ctmc.labeling().has(1, "infected"));
        assert_eq!(ctmc.exit_rate(1), 1.0);
    }

    #[test]
    fn negative_rates_clamped_nonfinite_reported() {
        let model = LocalModel::builder()
            .state("a", ["a"])
            .state("b", ["b"])
            .transition("a", "b", |m: &Occupancy| m[0] - 2.0)
            .unwrap()
            .build()
            .unwrap();
        let m = Occupancy::new(vec![1.0, 0.0]).unwrap();
        let q = model.generator_at(&m).unwrap();
        assert_eq!(q[(0, 1)], 0.0);
        let bad = LocalModel::builder()
            .state("a", ["a"])
            .state("b", ["b"])
            .transition("a", "b", |m: &Occupancy| 1.0 / (m[0] - m[0]))
            .unwrap()
            .build()
            .unwrap();
        assert!(matches!(
            bad.generator_at(&m),
            Err(CoreError::InvalidRate { .. })
        ));
    }

    #[test]
    fn drift_reports_first_non_finite_rate() {
        let model = LocalModel::builder()
            .state("a", ["a"])
            .state("b", ["b"])
            .state("c", ["c"])
            .constant_transition("a", "b", 1.0)
            .unwrap()
            .transition("b", "c", |_| f64::INFINITY)
            .unwrap()
            .transition("c", "a", |_| f64::NAN)
            .unwrap()
            .build()
            .unwrap();
        let m = Occupancy::uniform(3).unwrap();
        for result in [model.drift(&m), model.drift_unclamped(&m)] {
            match result {
                Err(CoreError::InvalidRate { from, to, value }) => {
                    assert_eq!((from.as_str(), to.as_str()), ("b", "c"));
                    assert_eq!(value, f64::INFINITY);
                }
                other => panic!("expected an invalid rate, got {other:?}"),
            }
        }
    }

    #[test]
    fn builder_validation() {
        assert!(LocalModel::builder().build().is_err());
        assert!(LocalModel::builder()
            .state("a", ["x"])
            .state("a", ["y"])
            .build()
            .is_err());
        assert!(LocalModel::builder()
            .state("a", ["x"])
            .transition("a", "a", |_| 1.0)
            .is_err());
        assert!(LocalModel::builder()
            .state("a", ["x"])
            .constant_transition("a", "b", -1.0)
            .is_err());
        let err = LocalModel::builder()
            .state("a", ["x"])
            .constant_transition("a", "ghost", 1.0)
            .unwrap()
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownState(_)));
    }

    #[test]
    fn dimension_checks() {
        let model = sis();
        let wrong = Occupancy::new(vec![1.0]).unwrap();
        assert!(model.generator_at(&wrong).is_err());
    }

    #[test]
    fn write_generator_matches_generator_at() {
        let model = sis();
        let m = Occupancy::new(vec![0.6, 0.4]).unwrap();
        let q1 = model.generator_at(&m).unwrap();
        let mut q2 = Matrix::zeros(2, 2);
        model.write_generator_at(&m, &mut q2);
        assert_eq!(q1, q2);
    }
}
