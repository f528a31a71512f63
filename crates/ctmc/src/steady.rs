//! Steady-state analysis: SCC/BSCC decomposition and stationary
//! distributions for arbitrary (including reducible) chains.
//!
//! The CSL steady-state operator `S⋈p(Φ)` (Def. 3 of the paper, checked per
//! Sec. IV-D) needs long-run state probabilities. For an irreducible chain
//! these solve `πQ = 0, Σπ = 1`; for a reducible chain they are a mixture of
//! per-BSCC stationary distributions weighted by absorption probabilities
//! from the initial distribution.

use mfcsl_math::gmres::{gmres, stationary_power};
use mfcsl_math::lu::LuDecomposition;
use mfcsl_math::{CscMatrix, MathError, Matrix};

use crate::propagator::{choose_backend, Backend};
use crate::sparse::SparseCtmc;
use crate::{Ctmc, CtmcError};

/// Relative residual target for the iterative stationary solve — pushed to
/// the rounding floor so the sparse path agrees with the dense LU
/// reference to well below the 1e-12 comparison tolerance of the
/// cross-backend tests. A solve that stalls above this target but below
/// [`GMRES_ACCEPT`] is still accepted.
const GMRES_TOL: f64 = 1e-15;
/// Largest residual (relative to `max(‖b‖, 1)`) still accepted from a
/// stalled GMRES solve before falling back to power iteration.
const GMRES_ACCEPT: f64 = 1e-12;
/// Restart length for the stationary GMRES: long enough that the
/// birth–death-like chains of population models converge inside one or two
/// cycles, short enough that the Krylov basis stays `O(m·n)` small.
const GMRES_RESTART: usize = 60;
/// Total Arnoldi-step budget before falling back to power iteration.
const GMRES_MAX_ITER: usize = 2000;
/// Update tolerance and budget for the power-iteration fallback. Each
/// iteration is `O(nnz)`, so even the full budget is cheap.
const POWER_TOL: f64 = 1e-14;
const POWER_MAX_ITER: usize = 1_000_000;

/// Computes the strongly connected components of the chain's transition
/// graph with Tarjan's algorithm (iterative, no recursion).
///
/// Components are returned in reverse topological order of the condensation
/// (every edge between components goes from a later to an earlier entry in
/// the returned list).
#[must_use]
pub fn sccs(ctmc: &Ctmc) -> Vec<Vec<usize>> {
    let n = ctmc.n_states();
    let adj: Vec<Vec<usize>> = (0..n).map(|s| ctmc.successors(s)).collect();

    const UNDEF: usize = usize::MAX;
    let mut index = vec![UNDEF; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS stack: (node, next child position).
    let mut call_stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != UNDEF {
            continue;
        }
        call_stack.push((start, 0));
        index[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut child)) = call_stack.last_mut() {
            if *child < adj[v].len() {
                let w = adj[v][*child];
                *child += 1;
                if index[w] == UNDEF {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack nonempty");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    components.push(comp);
                }
            }
        }
    }
    components
}

/// Computes the bottom strongly connected components: SCCs with no
/// transition leaving them.
#[must_use]
pub fn bsccs(ctmc: &Ctmc) -> Vec<Vec<usize>> {
    let comps = sccs(ctmc);
    let n = ctmc.n_states();
    let mut comp_of = vec![0usize; n];
    for (ci, comp) in comps.iter().enumerate() {
        for &s in comp {
            comp_of[s] = ci;
        }
    }
    comps
        .iter()
        .enumerate()
        .filter(|(ci, comp)| {
            comp.iter()
                .all(|&s| ctmc.successors(s).iter().all(|&j| comp_of[j] == *ci))
        })
        .map(|(_, comp)| comp.clone())
        .collect()
}

/// Stationary distribution of the chain restricted to an irreducible closed
/// set of states `component`, returned over the *full* state space (zeros
/// outside the component).
///
/// # Errors
///
/// Returns [`CtmcError::InvalidArgument`] for an empty component, and
/// propagates singular-system errors (which indicate the component is not
/// actually closed and irreducible).
pub fn stationary_on_component(ctmc: &Ctmc, component: &[usize]) -> Result<Vec<f64>, CtmcError> {
    if component.is_empty() {
        return Err(CtmcError::InvalidArgument(
            "component must be nonempty".into(),
        ));
    }
    for &s in component {
        ctmc.labeling().check_state(s)?;
    }
    let k = component.len();
    let n = ctmc.n_states();
    let mut pi = vec![0.0; n];
    if k == 1 {
        pi[component[0]] = 1.0;
        return Ok(pi);
    }
    // Solve x Q_C = 0, Σx = 1 ⇔ Q_Cᵀ xᵀ = 0 with a normalization row.
    let q = ctmc.generator();
    let nnz = component
        .iter()
        .map(|&si| {
            component
                .iter()
                .filter(|&&sj| si != sj && q[(si, sj)] != 0.0)
                .count()
        })
        .sum::<usize>();
    let x = if choose_backend(k, nnz) == Backend::Sparse {
        // Iterative path: extract the component's off-diagonal rates as
        // triplets (local indices) and solve matrix-free — no dense k×k
        // system is ever built.
        let mut triplets = Vec::with_capacity(nnz);
        let mut exit = vec![0.0; k];
        for (li, &si) in component.iter().enumerate() {
            for (lj, &sj) in component.iter().enumerate() {
                if si == sj {
                    continue;
                }
                let r = q[(si, sj)];
                if r != 0.0 {
                    triplets.push((li, lj, r));
                    exit[li] += r;
                }
            }
        }
        let rates = CscMatrix::from_triplets(k, k, &triplets).map_err(CtmcError::from)?;
        stationary_sparse_core(&rates, &exit)?
    } else {
        // Dense path, bitwise identical to the historical LU solve but
        // built in place: write the transposed bordered system directly
        // (one allocation) instead of select + transpose + factor-copy.
        let mut system = Matrix::zeros(k, k);
        for (row, &sj) in component.iter().enumerate() {
            if row == k - 1 {
                break;
            }
            for (col, &si) in component.iter().enumerate() {
                system[(row, col)] = q[(si, sj)];
            }
        }
        for j in 0..k {
            system[(k - 1, j)] = 1.0;
        }
        let mut rhs = vec![0.0; k];
        rhs[k - 1] = 1.0;
        LuDecomposition::from_matrix(system)?.solve(&rhs)?
    };
    for (&s, &v) in component.iter().zip(&x) {
        pi[s] = v.max(0.0);
    }
    // Clean round-off.
    let total: f64 = pi.iter().sum();
    for v in &mut pi {
        *v /= total;
    }
    Ok(pi)
}

/// Stationary distribution of an **irreducible** sparse chain, computed
/// matrix-free: GMRES on the bordered balance system `πQ = 0, Σπ = 1`
/// with a power-iteration fallback on the uniformized chain. Peak memory
/// is `O(nnz + restart·n)` — no dense `n × n` matrix is ever allocated,
/// which is what makes `K` in the thousands tractable.
///
/// The caller is responsible for irreducibility (e.g. the bounded-queue
/// birth–death chains of population models); for a reducible chain the
/// result is meaningless and usually fails to converge.
///
/// # Errors
///
/// Returns [`CtmcError::Math`] with [`MathError::NoConvergence`] when both
/// the GMRES solve and the power-iteration fallback fail to converge.
pub fn steady_state_sparse(chain: &SparseCtmc) -> Result<Vec<f64>, CtmcError> {
    if chain.n_states() == 1 {
        return Ok(vec![1.0]);
    }
    stationary_sparse_core(chain.rates_csc(), chain.exit_rates())
}

/// Shared iterative core: `rates` holds the off-diagonal rates in CSC
/// order (column `j` = incoming transitions of `j`), `exit` their row
/// sums. Returns the stationary distribution over the local index space.
fn stationary_sparse_core(rates: &CscMatrix, exit: &[f64]) -> Result<Vec<f64>, CtmcError> {
    let n = exit.len();
    // Bordered operator: y = Qᵀx with the last balance equation replaced
    // by the normalization Σx. Column `j` of the CSC gathers the incoming
    // flow of state `j`; the diagonal of `Q` is `-exit[j]`.
    let apply = |x: &[f64], y: &mut [f64]| {
        for (j, slot) in y.iter_mut().enumerate() {
            *slot = rates.gather(x, j) - exit[j] * x[j];
        }
        y[n - 1] = x.iter().sum();
    };
    let mut b = vec![0.0; n];
    b[n - 1] = 1.0;
    let x0 = vec![1.0 / n as f64; n];
    let solution = match gmres(
        apply,
        &b,
        &x0,
        GMRES_RESTART.min(n),
        GMRES_MAX_ITER,
        GMRES_TOL,
    ) {
        Ok((x, stats)) if stats.converged || stats.residual <= GMRES_ACCEPT => Some(x),
        _ => None,
    };
    let mut pi = match solution {
        Some(x) => x,
        None => {
            // Fallback: power iteration on the uniformized step
            // `x ← x·(I + Q/Λ)` — unconditionally stable for any chain,
            // linear convergence at the spectral gap.
            let lambda = exit.iter().fold(0.0_f64, |m, &v| m.max(v));
            if lambda == 0.0 {
                // Frozen chain: every state is absorbing; with no further
                // structure the uniform distribution is stationary.
                return Ok(x0);
            }
            let unif = lambda * 1.02;
            let step = |v: &[f64], out: &mut [f64]| {
                for (j, slot) in out.iter_mut().enumerate() {
                    *slot = v[j] * (1.0 - exit[j] / unif) + rates.gather(v, j) / unif;
                }
            };
            let (x, stats) = stationary_power(step, n, Some(&x0), POWER_TOL, POWER_MAX_ITER)?;
            if !stats.converged {
                return Err(CtmcError::Math(MathError::NoConvergence {
                    iterations: stats.iterations,
                    context: "sparse stationary solve: GMRES and power iteration both failed"
                        .into(),
                }));
            }
            x
        }
    };
    for v in &mut pi {
        if !(*v > 0.0) {
            *v = 0.0;
        }
    }
    let total: f64 = pi.iter().sum();
    if !(total > 0.0) {
        return Err(CtmcError::Math(MathError::NoConvergence {
            iterations: 0,
            context: "sparse stationary solve produced a zero distribution".into(),
        }));
    }
    for v in &mut pi {
        *v /= total;
    }
    Ok(pi)
}

/// Stationary distribution of a chain with a **unique** BSCC (in particular
/// any irreducible chain), independent of the initial distribution.
///
/// # Errors
///
/// Returns [`CtmcError::InvalidArgument`] if the chain has multiple BSCCs
/// (use [`steady_state_from`] then), and propagates linear-solve errors.
pub fn steady_state(ctmc: &Ctmc) -> Result<Vec<f64>, CtmcError> {
    let bs = bsccs(ctmc);
    match bs.len() {
        1 => stationary_on_component(ctmc, &bs[0]),
        k => Err(CtmcError::InvalidArgument(format!(
            "chain has {k} bottom components; the steady state depends on the initial \
             distribution — use steady_state_from"
        ))),
    }
}

/// Long-run distribution starting from `pi0`: absorption probabilities into
/// each BSCC combined with the BSCCs' stationary distributions.
///
/// # Errors
///
/// Returns [`CtmcError::InvalidDistribution`] for a bad `pi0` and
/// propagates linear-solve errors.
pub fn steady_state_from(ctmc: &Ctmc, pi0: &[f64]) -> Result<Vec<f64>, CtmcError> {
    ctmc.check_distribution(pi0)?;
    let n = ctmc.n_states();
    let bs = bsccs(ctmc);
    let absorb = absorption_probabilities(ctmc, &bs)?;
    let mut out = vec![0.0; n];
    for (b, comp) in bs.iter().enumerate() {
        // Probability of ending in BSCC b from pi0.
        let weight: f64 = (0..n).map(|s| pi0[s] * absorb[(s, b)]).sum();
        if weight == 0.0 {
            continue;
        }
        let stat = stationary_on_component(ctmc, comp)?;
        for (o, &sv) in out.iter_mut().zip(&stat) {
            *o += weight * sv;
        }
    }
    Ok(out)
}

/// For every state `s` and BSCC index `b`, the probability that the chain
/// started in `s` is eventually absorbed into BSCC `b`. Returned as an
/// `n_states × n_bsccs` matrix.
///
/// # Errors
///
/// Propagates linear-solve errors (unreachable for well-formed chains).
pub fn absorption_probabilities(ctmc: &Ctmc, bs: &[Vec<usize>]) -> Result<Matrix, CtmcError> {
    let n = ctmc.n_states();
    let nb = bs.len();
    let mut in_bscc: Vec<Option<usize>> = vec![None; n];
    for (b, comp) in bs.iter().enumerate() {
        for &s in comp {
            in_bscc[s] = Some(b);
        }
    }
    let transient: Vec<usize> = (0..n).filter(|&s| in_bscc[s].is_none()).collect();
    let mut out = Matrix::zeros(n, nb);
    for (s, slot) in in_bscc.iter().enumerate() {
        if let Some(b) = slot {
            out[(s, *b)] = 1.0;
        }
    }
    if transient.is_empty() {
        return Ok(out);
    }
    // Embedded jump probabilities restricted to transient states:
    // x_s(b) = Σ_{j transient} P_sj x_j(b) + Σ_{j ∈ b} P_sj
    // ⇔ (I - P_TT) x(b) = P_T,b · 1.
    let q = ctmc.generator();
    let tn = transient.len();
    // Build `I - P_TT` in place: start from zeros, write the unit diagonal
    // row by row — one allocation, no identity scratch matrix, and the
    // factorization below consumes the system instead of copying it.
    let mut system = Matrix::zeros(tn, tn);
    let mut rhs = Matrix::zeros(tn, nb);
    for (row, &s) in transient.iter().enumerate() {
        system[(row, row)] = 1.0;
        let exit = ctmc.exit_rate(s);
        if exit == 0.0 {
            // An absorbing state outside any BSCC cannot exist (a singleton
            // absorbing state is its own BSCC), but guard anyway.
            continue;
        }
        for (col, &j) in transient.iter().enumerate() {
            if s != j {
                system[(row, col)] -= q[(s, j)] / exit;
            }
        }
        for (b, comp) in bs.iter().enumerate() {
            let p: f64 = comp.iter().map(|&j| q[(s, j)] / exit).sum();
            rhs[(row, b)] = p;
        }
    }
    let x = LuDecomposition::from_matrix(system)?.solve_matrix(&rhs)?;
    for (row, &s) in transient.iter().enumerate() {
        for b in 0..nb {
            out[(s, b)] = x[(row, b)].clamp(0.0, 1.0);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::transient_distribution;
    use crate::CtmcBuilder;

    fn birth_death() -> Ctmc {
        CtmcBuilder::new()
            .state("s0", ["low"])
            .state("s1", ["mid"])
            .state("s2", ["high"])
            .transition("s0", "s1", 2.0)
            .unwrap()
            .transition("s1", "s2", 2.0)
            .unwrap()
            .transition("s1", "s0", 1.0)
            .unwrap()
            .transition("s2", "s1", 1.0)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn scc_of_irreducible_chain_is_whole_space() {
        let c = birth_death();
        let comps = sccs(&c);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0], vec![0, 1, 2]);
        assert_eq!(bsccs(&c).len(), 1);
    }

    #[test]
    fn scc_reverse_topological_order() {
        // a -> b -> c (chain), so SCCs come out c, b, a.
        let c = CtmcBuilder::new()
            .state("a", ["a"])
            .state("b", ["b"])
            .state("c", ["c"])
            .transition("a", "b", 1.0)
            .unwrap()
            .transition("b", "c", 1.0)
            .unwrap()
            .build()
            .unwrap();
        let comps = sccs(&c);
        assert_eq!(comps, vec![vec![2], vec![1], vec![0]]);
        assert_eq!(bsccs(&c), vec![vec![2]]);
    }

    #[test]
    fn steady_state_birth_death_detailed_balance() {
        // Birth rate 2, death rate 1: pi_i ∝ 2^i.
        let c = birth_death();
        let pi = steady_state(&c).unwrap();
        let z = 1.0 + 2.0 + 4.0;
        assert!((pi[0] - 1.0 / z).abs() < 1e-12);
        assert!((pi[1] - 2.0 / z).abs() < 1e-12);
        assert!((pi[2] - 4.0 / z).abs() < 1e-12);
    }

    #[test]
    fn steady_state_agrees_with_long_transient() {
        let c = birth_death();
        let pi = steady_state(&c).unwrap();
        let pt = transient_distribution(&c, &[1.0, 0.0, 0.0], 200.0, 1e-13).unwrap();
        for (a, b) in pi.iter().zip(&pt) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn multiple_bsccs_require_initial_distribution() {
        // t -> l (rate 1), t -> r (rate 3): BSCCs {l}, {r}.
        let c = CtmcBuilder::new()
            .state("t", ["t"])
            .state("l", ["l"])
            .state("r", ["r"])
            .transition("t", "l", 1.0)
            .unwrap()
            .transition("t", "r", 3.0)
            .unwrap()
            .build()
            .unwrap();
        assert!(steady_state(&c).is_err());
        let pi = steady_state_from(&c, &[1.0, 0.0, 0.0]).unwrap();
        assert!((pi[1] - 0.25).abs() < 1e-12);
        assert!((pi[2] - 0.75).abs() < 1e-12);
        // Starting inside a BSCC stays there.
        let pi = steady_state_from(&c, &[0.0, 1.0, 0.0]).unwrap();
        assert_eq!(pi[1], 1.0);
    }

    #[test]
    fn absorption_through_transient_chain() {
        // t0 -> t1 -> {goal | trap} with a loop back t1 -> t0.
        let c = CtmcBuilder::new()
            .state("t0", ["t"])
            .state("t1", ["t"])
            .state("goal", ["g"])
            .state("trap", ["x"])
            .transition("t0", "t1", 1.0)
            .unwrap()
            .transition("t1", "t0", 1.0)
            .unwrap()
            .transition("t1", "goal", 1.0)
            .unwrap()
            .transition("t1", "trap", 2.0)
            .unwrap()
            .build()
            .unwrap();
        let bs = bsccs(&c);
        assert_eq!(bs.len(), 2);
        let a = absorption_probabilities(&c, &bs).unwrap();
        // From t1 the jump chain goes goal w.p. 1/4, trap w.p. 1/2, back to
        // t0 w.p. 1/4 (which returns to t1 w.p. 1): absorbed at goal with
        // probability x = 1/4 + 1/4 x => x = 1/3.
        let goal_b = bs.iter().position(|b| b.contains(&2)).unwrap();
        assert!((a[(1, goal_b)] - 1.0 / 3.0).abs() < 1e-12, "{a}");
        assert!((a[(0, goal_b)] - 1.0 / 3.0).abs() < 1e-12);
        // Rows sum to one.
        for s in 0..4 {
            let sum: f64 = (0..bs.len()).map(|b| a[(s, b)]).sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn reducible_long_run_matches_transient() {
        let c = CtmcBuilder::new()
            .state("t", ["t"])
            .state("a", ["a"])
            .state("b", ["b"])
            .transition("t", "a", 1.0)
            .unwrap()
            .transition("a", "b", 2.0)
            .unwrap()
            .transition("b", "a", 2.0)
            .unwrap()
            .build()
            .unwrap();
        let long_run = steady_state_from(&c, &[1.0, 0.0, 0.0]).unwrap();
        let transient = transient_distribution(&c, &[1.0, 0.0, 0.0], 300.0, 1e-13).unwrap();
        for (x, y) in long_run.iter().zip(&transient) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    /// A birth–death chain over `n` states with state-dependent rates —
    /// irreducible and sparse, the shape of the bounded-queue models.
    fn birth_death_triplets(n: usize) -> Vec<(usize, usize, f64)> {
        let mut t = Vec::new();
        for i in 0..n - 1 {
            t.push((i, i + 1, 1.4 + 0.1 * (i % 3) as f64));
            t.push((i + 1, i, 2.0 + 0.2 * (i % 5) as f64));
        }
        t
    }

    #[test]
    fn sparse_stationary_matches_dense_reference() {
        // Large enough that stationary_on_component takes the iterative
        // branch; solve the same chain densely via the LU path by building
        // the bordered system directly.
        let n = 96;
        let triplets = birth_death_triplets(n);
        let chain = SparseCtmc::from_triplets(n, &triplets).unwrap();
        let pi = steady_state_sparse(&chain).unwrap();
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Dense reference: explicit bordered LU solve.
        let mut system = Matrix::zeros(n, n);
        for &(i, j, r) in &triplets {
            system[(j, i)] += r;
            system[(i, i)] -= r;
        }
        for j in 0..n {
            system[(n - 1, j)] = 1.0;
        }
        let mut rhs = vec![0.0; n];
        rhs[n - 1] = 1.0;
        let x = LuDecomposition::from_matrix(system)
            .unwrap()
            .solve(&rhs)
            .unwrap();
        for (a, b) in pi.iter().zip(&x) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        // And against the global-balance invariant directly.
        for j in 0..n {
            let inflow = chain.rates_csc().gather(&pi, j);
            let outflow = chain.exit_rate(j) * pi[j];
            assert!((inflow - outflow).abs() < 1e-11);
        }
    }

    #[test]
    fn sparse_stationary_single_state() {
        let chain = SparseCtmc::from_triplets(1, &[]).unwrap();
        assert_eq!(steady_state_sparse(&chain).unwrap(), vec![1.0]);
    }

    #[test]
    fn dense_component_path_is_bitwise_unchanged_below_threshold() {
        // Below 64 states choose_backend stays dense; the in-place build
        // must reproduce the historical select+transpose solve exactly.
        let c = birth_death();
        let pi = stationary_on_component(&c, &[0, 1, 2]).unwrap();
        let q_c = c.generator().select(&[0, 1, 2]);
        let mut system = q_c.transpose();
        for j in 0..3 {
            system[(2, j)] = 1.0;
        }
        let mut rhs = vec![0.0; 3];
        rhs[2] = 1.0;
        let x = LuDecomposition::new(&system).unwrap().solve(&rhs).unwrap();
        let total: f64 = x.iter().map(|v| v.max(0.0)).sum();
        for (a, &b) in pi.iter().zip(&x) {
            assert_eq!(a.to_bits(), (b.max(0.0) / total).to_bits());
        }
    }

    #[test]
    fn large_component_takes_iterative_branch() {
        // 80-state ring chain through the dense Ctmc front end: the
        // component is large and sparse, so the iterative branch runs, and
        // must agree with the detailed-balance solution.
        let n = 80;
        let mut builder = CtmcBuilder::new();
        let names: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
        for name in &names {
            builder = builder.state(name, [name.as_str()]);
        }
        // Up/down rates close enough that the stationary mass stays within
        // a few orders of magnitude — a wider spread would demand absolute
        // accuracy below the rounding floor on the tiny entries.
        for i in 0..n - 1 {
            builder = builder.transition(&names[i], &names[i + 1], 2.0).unwrap();
            builder = builder.transition(&names[i + 1], &names[i], 1.9).unwrap();
        }
        let c = builder.build().unwrap();
        let pi = steady_state(&c).unwrap();
        // Detailed balance: 1.9·pi_{i+1} = 2·pi_i.
        for i in 0..n - 1 {
            assert!(
                (1.9 * pi[i + 1] - 2.0 * pi[i]).abs() < 1e-8 * pi[i].max(pi[i + 1]),
                "i = {i}"
            );
        }
    }

    #[test]
    fn stationary_component_validation() {
        let c = birth_death();
        assert!(stationary_on_component(&c, &[]).is_err());
        assert!(stationary_on_component(&c, &[7]).is_err());
        // Singleton absorbing component.
        let c2 = CtmcBuilder::new()
            .state("a", ["a"])
            .state("b", ["b"])
            .transition("a", "b", 1.0)
            .unwrap()
            .build()
            .unwrap();
        let pi = stationary_on_component(&c2, &[1]).unwrap();
        assert_eq!(pi, vec![0.0, 1.0]);
    }
}
