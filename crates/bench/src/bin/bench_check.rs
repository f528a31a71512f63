//! Scalability benchmark of the parallel checking runtime: writes
//! `BENCH_check.json` at the repo root.
//!
//! Four workloads, each timed at 1, 2, 4, and 8 pool threads with the
//! speedup relative to the 1-thread run:
//!
//! * **fig3** — the Figure 3 checking batch: several MF-CSL formulas on
//!   the virus model checked through one [`CheckSession`], fanning the
//!   per-formula checks out over the pool.
//! * **table2** — a CSat sweep over a grid of initial occupancies on
//!   Setting 2 (the per-initial-state analysis behind satisfaction
//!   regions), one pool task per occupancy.
//! * **scalability** — the transient solution of the exact lumped
//!   overall CTMC (`C(N+2, 2)` states) via column-blocked uniformization,
//!   the large-matrix workload the pool was built for.
//! * **sim** — the statistical lane: one SMC batch of SSA replications
//!   fanned out over the replication runner's threads, whose seeding makes
//!   every thread count bitwise identical to the serial run.
//!
//! Every parallel run is compared against the serial result and must be
//! bitwise identical; the JSON records the outcome. Wall-clock speedup
//! requires a multicore host — the report includes the machine's
//! available parallelism so a 1-core CI box is not mistaken for a
//! scaling regression.
//!
//! A fourth, serial **solver** workload times the individual hot-loop
//! kernels (mean-field solve, Eq. 5 matrix transient, Eq. 6 window
//! propagation with and without the steady-regime uniformization hand-off)
//! and — via the counting allocator installed in this binary — their
//! allocation counts and peak heap growth. It also times the large-`K`
//! sparse lane on the bounded-queue model (`K ∈ {64, 256}` in smoke mode,
//! plus `K = 1024` in full runs): GMRES steady state and the vector-path
//! until, whose `peak_bytes` must stay below one dense `K × K` matrix.
//! It writes a separate `BENCH_solver.json` so the schema of
//! `BENCH_check.json` stays stable for downstream comparisons.
//!
//! The solver workload also times the **batched SoA sweep** kernels
//! (`batch_sweep_perlane`, `batch_sweep_shared`): the same occupancy grid
//! propagated by one Dopri5 drive over a K × B structure-of-arrays state.
//! Their `rhs_evals` is the drive's `batch_rhs_calls` — the number of
//! batched kernel invocations — and the JSON additionally records
//! `batch_width`, `detached`, `restarts`, and the per-lane
//! accepted/rejected/rhs-eval tallies.
//!
//! Both reports are stamped with the git revision and the machine's
//! available parallelism. `--baseline <path>` compares the serial
//! (1-thread) wall-clock of each workload against a previous
//! `BENCH_check.json` and exits non-zero on a >25 % slowdown;
//! `--solver-baseline <path>` does the same for the solver kernels against
//! a previous `BENCH_solver.json`, gating on wall-clock AND RHS-evaluation
//! counts (evals are deterministic, so they get the tolerance but no noise
//! floor). Either comparison is refused (not failed) when the baseline was
//! taken on a host with a different core count or in a different smoke
//! mode, because such timings are not commensurable.
//!
//! Usage: `cargo run --release -p mfcsl-bench --bin bench_check --
//! [--smoke] [--out <path>] [--solver-out <path>] [--baseline <path>]
//! [--solver-baseline <path>]`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use mfcsl_core::meanfield;
use mfcsl_core::mfcsl::{parse_formula, CheckSession};
use mfcsl_core::Occupancy;
use mfcsl_ctmc::inhomogeneous::{
    propagate_window, propagate_window_from, transition_matrix, transition_matrix_trajectory,
    ConstantTail, FnGenerator,
};
use mfcsl_math::{alloc_counter, Matrix};
use mfcsl_models::virus;
use mfcsl_ode::{BatchMode, OdeOptions, SolverWorkspace};
use mfcsl_pool::ThreadPool;
use mfcsl_sim::{lumped, ssa};

/// Counts every allocation the workloads make, so the solver report can
/// show the hot loops run allocation-free (see `mfcsl_math::alloc_counter`).
#[global_allocator]
static GLOBAL: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Slowdown tolerance of the `--baseline` regression gate.
const GATE_TOLERANCE: f64 = 1.25;

/// Walls below this are scheduler noise, not signal: a workload whose
/// serial run finishes this fast (both now and in the baseline) passes the
/// gate unconditionally. Smoke-mode runs sit entirely below the floor, so
/// the gate's pass/fail verdict only ever comes from full-size runs.
const GATE_NOISE_FLOOR: f64 = 0.05;

struct WorkloadReport {
    name: &'static str,
    description: String,
    /// `(threads, wall_seconds, bitwise_equal_to_serial)` per run.
    runs: Vec<(usize, f64, bool)>,
}

/// One timed hot-loop kernel of the solver workload.
struct KernelReport {
    name: String,
    description: String,
    wall_seconds: f64,
    rhs_evals: usize,
    accepted_steps: usize,
    allocations: u64,
    peak_bytes: u64,
    /// Present for the `batch_sweep_*` kernels: drive counters and the
    /// per-lane controller tallies of the batched solve.
    batch: Option<BatchDetail>,
}

/// Drive-level counters of one batched kernel.
struct BatchDetail {
    width: usize,
    detached: usize,
    restarts: usize,
    /// `(lane, accepted, rejected, rhs_evals)` per lane, in input order.
    lanes: Vec<(usize, usize, usize, usize)>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_check.json".to_string());
    let solver_out_path = flag("--solver-out").unwrap_or_else(|| "BENCH_solver.json".to_string());
    let baseline_path = flag("--baseline");
    let solver_baseline_path = flag("--solver-baseline");

    let reports = vec![
        fig3_workload(smoke),
        table2_workload(smoke),
        scalability_workload(smoke),
        sim_workload(smoke),
    ];

    let json = render_json(&reports, smoke);
    std::fs::write(&out_path, json).expect("write benchmark report");
    println!("report written to {out_path}");
    for r in &reports {
        let base = r.runs[0].1;
        for (threads, wall, bitwise) in &r.runs {
            println!(
                "{:<12} threads={threads}  wall={wall:.4}s  speedup={:.2}x  bitwise_equal={bitwise}",
                r.name,
                base / wall
            );
        }
    }

    let kernels = solver_workload(smoke);
    let solver_json = render_solver_json(&kernels, smoke);
    std::fs::write(&solver_out_path, solver_json).expect("write solver report");
    println!("solver report written to {solver_out_path}");
    for k in &kernels {
        println!(
            "{:<22} wall={:.4}s  rhs_evals={}  steps={}  allocs={}  peak_bytes={}",
            k.name, k.wall_seconds, k.rhs_evals, k.accepted_steps, k.allocations, k.peak_bytes
        );
    }

    let mut code = 0;
    if let Some(path) = baseline_path {
        code |= regression_gate(&path, &reports, smoke);
    }
    if let Some(path) = solver_baseline_path {
        code |= solver_regression_gate(&path, &kernels, smoke);
    }
    if code != 0 {
        std::process::exit(code);
    }
}

/// Short git revision of the working tree, or `"unknown"` outside a
/// checkout.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The Figure 3 checking batch: distinct formulas with distinct horizons,
/// fanned out per formula.
fn fig3_workload(smoke: bool) -> WorkloadReport {
    let model =
        virus::model(virus::setting_1(), virus::InfectionLaw::SmartVirus).expect("valid params");
    let m0 = virus::example_occupancy().expect("paper occupancy");
    let texts: Vec<String> = if smoke {
        vec![
            "EP{<0.3}[ not_infected U[0,1] infected ]".to_string(),
            "E{>0.05}[ infected ]".to_string(),
        ]
    } else {
        (0..8)
            .map(|i| {
                format!(
                    "EP{{<0.3}}[ not_infected U[0,{}] infected ]",
                    1.0 + 0.5 * f64::from(i)
                )
            })
            .collect()
    };
    let psis: Vec<_> = texts
        .iter()
        .map(|t| parse_formula(t).expect("parses"))
        .collect();

    let serial_session = CheckSession::new(&model);
    let serial = serial_session.check_all(&psis, &m0).expect("checks");

    let mut runs = Vec::new();
    for threads in THREAD_COUNTS {
        let pool = Arc::new(ThreadPool::new(threads));
        let session = CheckSession::new(&model).with_pool(pool);
        let start = Instant::now();
        let verdicts = session.check_all(&psis, &m0).expect("checks");
        let wall = start.elapsed().as_secs_f64();
        runs.push((threads, wall, verdicts == serial));
    }
    WorkloadReport {
        name: "fig3",
        description: format!(
            "check_all of {} Figure-3-style formulas on the virus model (Setting 1), \
             one pool task per formula",
            psis.len()
        ),
        runs,
    }
}

/// A CSat sweep over a grid of initial occupancies, fanned out per
/// occupancy.
fn table2_workload(smoke: bool) -> WorkloadReport {
    let model =
        virus::model(virus::setting_2(), virus::InfectionLaw::SmartVirus).expect("valid params");
    let psi = parse_formula("E{<0.4}[ infected ]").expect("parses");
    let grid = if smoke { 3 } else { 12 };
    let m0s: Vec<Occupancy> = (1..=grid)
        .map(|i| {
            let infected = 0.5 * f64::from(i) / f64::from(grid);
            Occupancy::new(vec![1.0 - infected, infected / 2.0, infected / 2.0]).expect("valid")
        })
        .collect();
    let theta = if smoke { 5.0 } else { 15.0 };

    let serial_session = CheckSession::new(&model);
    let serial = serial_session
        .csat_sweep(&psi, &m0s, theta)
        .expect("sweeps");
    let serial_bits = interval_bits(&serial);

    let mut runs = Vec::new();
    for threads in THREAD_COUNTS {
        let pool = Arc::new(ThreadPool::new(threads));
        let session = CheckSession::new(&model).with_pool(pool);
        let start = Instant::now();
        let sets = session.csat_sweep(&psi, &m0s, theta).expect("sweeps");
        let wall = start.elapsed().as_secs_f64();
        runs.push((threads, wall, interval_bits(&sets) == serial_bits));
    }
    WorkloadReport {
        name: "table2",
        description: format!(
            "cSat sweep of E{{<0.4}}[infected] over {} initial occupancies on Setting 2, \
             one pool task per occupancy",
            m0s.len()
        ),
        runs,
    }
}

fn interval_bits(sets: &[mfcsl_math::IntervalSet]) -> Vec<u64> {
    sets.iter()
        .flat_map(|s| {
            s.intervals()
                .iter()
                .flat_map(|i| [i.lo().value.to_bits(), i.hi().value.to_bits()])
        })
        .collect()
}

/// The statistical lane: one SMC batch of SSA replications fanned out over
/// the replication runner's thread pool. Seeds are a pure function of
/// `(base seed, replication index)`, so every thread count must reproduce
/// the serial estimates bit for bit — the bitwise column checks it.
fn sim_workload(smoke: bool) -> WorkloadReport {
    let model =
        virus::model(virus::setting_1(), virus::InfectionLaw::SmartVirus).expect("valid params");
    let m0 = virus::example_occupancy().expect("paper occupancy");
    let psi = parse_formula("EP{>0}[ tt U[0,2] infected ]").expect("parses");
    let (population, replications) = if smoke { (100, 100) } else { (1000, 400) };

    let estimate_bits = |v: &mfcsl_smc::SmcVerdict| -> Vec<u64> {
        v.operators
            .iter()
            .flat_map(|op| {
                [
                    op.estimate.mean.to_bits(),
                    op.estimate.lo.to_bits(),
                    op.estimate.hi.to_bits(),
                ]
            })
            .collect()
    };
    let run = |threads: usize| {
        let mut options = mfcsl_smc::SmcOptions::new(population);
        options.replications = replications;
        options.seed = 42;
        options.threads = threads;
        let session = mfcsl_smc::SmcSession::new(&model, options).expect("valid options");
        let start = Instant::now();
        let verdict = session.check(&psi, &m0).expect("simulates");
        (start.elapsed().as_secs_f64(), estimate_bits(&verdict))
    };
    let (_, serial_bits) = run(1);

    let mut runs = Vec::new();
    for threads in THREAD_COUNTS {
        let (wall, bits) = run(threads);
        runs.push((threads, wall, bits == serial_bits));
    }
    WorkloadReport {
        name: "sim",
        description: format!(
            "SMC estimate of EP{{>0}}[ tt U[0,2] infected ] on the virus model (Setting 1) \
             at N = {population}, {replications} SSA replications fanned out per thread"
        ),
        runs,
    }
}

/// The exact lumped overall CTMC: `C(N+2, 2)` states solved by
/// column-blocked uniformization on the sparse backend.
fn scalability_workload(smoke: bool) -> WorkloadReport {
    let model =
        virus::model(virus::setting_2(), virus::InfectionLaw::SmartVirus).expect("valid params");
    let m0 = Occupancy::new(vec![0.8, 0.1, 0.1]).expect("valid");
    let n = if smoke { 60 } else { 320 };
    let t = 2.0;
    let chain = lumped::build_sparse(&model, n, 600_000).expect("builds");
    let c0 = ssa::counts_from_occupancy(&m0, n).expect("counts");

    let serial = chain.expected_occupancy(&c0, t, 1e-10).expect("transient");
    let serial_bits: Vec<u64> = serial.iter().map(|x| x.to_bits()).collect();

    let mut runs = Vec::new();
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        let start = Instant::now();
        let e = chain
            .expected_occupancy_on(Some(&pool), &c0, t, 1e-10)
            .expect("transient");
        let wall = start.elapsed().as_secs_f64();
        let bits: Vec<u64> = e.iter().map(|x| x.to_bits()).collect();
        runs.push((threads, wall, bits == serial_bits));
    }
    WorkloadReport {
        name: "scalability",
        description: format!(
            "transient solution of the lumped overall CTMC for N = {n} \
             ({} states, sparse backend, column-blocked uniformization)",
            lumped::n_lumped_states(n, 3)
        ),
        runs,
    }
}

/// Hand-rolled JSON (the workspace's serde is an offline stub without a
/// serializer).
fn render_json(reports: &[WorkloadReport], smoke: bool) -> String {
    let threads_available = mfcsl_pool::default_parallelism();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"check\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"git_revision\": \"{}\",", git_revision());
    let _ = writeln!(out, "  \"threads_available\": {threads_available},");
    if threads_available < 2 {
        let _ = writeln!(
            out,
            "  \"note\": \"host exposes a single core: wall-clock speedup over the \
             1-thread run is not attainable on this machine; rerun on a multicore \
             host to measure scaling\","
        );
    }
    let _ = writeln!(out, "  \"workloads\": [");
    for (wi, r) in reports.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(out, "      \"description\": \"{}\",", r.description);
        let _ = writeln!(out, "      \"results\": [");
        let base = r.runs[0].1;
        for (i, (threads, wall, bitwise)) in r.runs.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {{\"threads\": {threads}, \"wall_seconds\": {wall:.6}, \
                 \"speedup_vs_1\": {:.4}, \"bitwise_equal_to_serial\": {bitwise}}}{}",
                base / wall,
                if i + 1 < r.runs.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      ]");
        let _ = writeln!(
            out,
            "    }}{}",
            if wi + 1 < reports.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

/// Runs `f` inside an allocation-counter bracket and a wall-clock timer.
/// `f` returns the `(rhs_evals, accepted_steps)` counters reported by the
/// solver statistics of whatever it integrated.
fn timed_kernel(
    name: impl Into<String>,
    description: String,
    f: impl FnOnce() -> (usize, usize),
) -> KernelReport {
    let base = alloc_counter::begin();
    let start = Instant::now();
    let (rhs_evals, accepted_steps) = f();
    let wall_seconds = start.elapsed().as_secs_f64();
    let d = alloc_counter::delta(base);
    KernelReport {
        name: name.into(),
        description,
        wall_seconds,
        rhs_evals,
        accepted_steps,
        allocations: d.allocations,
        peak_bytes: d.peak_bytes,
        batch: None,
    }
}

/// [`timed_kernel`] for the batched kernels: `f` additionally returns the
/// drive counters and per-lane tallies recorded in the report.
fn timed_batch_kernel(
    name: impl Into<String>,
    description: String,
    f: impl FnOnce() -> ((usize, usize), BatchDetail),
) -> KernelReport {
    let mut detail = None;
    let mut report = timed_kernel(name, description, || {
        let (counters, d) = f();
        detail = Some(d);
        counters
    });
    report.batch = detail;
    report
}

/// The serial per-kernel workload behind `BENCH_solver.json`: the hot
/// loops every verdict bottoms out in, timed one by one with RHS-eval and
/// allocation counts.
fn solver_workload(smoke: bool) -> Vec<KernelReport> {
    let model =
        virus::model(virus::setting_2(), virus::InfectionLaw::SmartVirus).expect("valid params");
    let grid = if smoke { 3 } else { 12 };
    let theta = if smoke { 5.0 } else { 15.0 };
    let m0s: Vec<Occupancy> = (1..=grid)
        .map(|i| {
            let infected = 0.5 * f64::from(i) / f64::from(grid);
            Occupancy::new(vec![1.0 - infected, infected / 2.0, infected / 2.0]).expect("valid")
        })
        .collect();
    let opts = OdeOptions::default();
    let stats_of = |t: &mfcsl_ode::Trajectory| (t.stats().rhs_evals, t.stats().accepted);

    // Warm-up outside the measured sections: faults in code pages and the
    // allocator's own arenas so the first kernel is not charged for them.
    let _ = meanfield::solve(&model, &m0s[0], 1.0, &opts).expect("solves");

    let mut kernels = Vec::new();

    kernels.push(timed_kernel(
        "meanfield_fresh",
        format!(
            "mean-field solve (Eq. 1) of Setting 2 over {grid} initial occupancies to \
             theta = {theta}, fresh solver workspace per solve"
        ),
        || {
            m0s.iter().fold((0, 0), |(rhs, acc), m0| {
                let sol = meanfield::solve(&model, m0, theta, &opts).expect("solves");
                let s = sol.trajectory().stats();
                (rhs + s.rhs_evals, acc + s.accepted)
            })
        },
    ));

    kernels.push(timed_kernel(
        "meanfield_workspace",
        "the same sweep through one shared SolverWorkspace: stage buffers k1..k7 and the \
         step arena are allocated once and reused across all solves"
            .to_string(),
        || {
            let mut ws = SolverWorkspace::new();
            m0s.iter().fold((0, 0), |(rhs, acc), m0| {
                let sol = meanfield::solve_with(&model, m0, theta, &opts, &mut ws).expect("solves");
                let s = sol.trajectory().stats();
                (rhs + s.rhs_evals, acc + s.accepted)
            })
        },
    ));

    // The same sweep as one structure-of-arrays batch: all occupancies ride
    // one Dopri5 drive. `rhs_evals` here is `batch_rhs_calls` — the number
    // of K×B kernel invocations that propagated the whole sweep, the
    // batched analogue of the scalar counter and the number the verify
    // budget compares against a single scalar solve.
    for (mode, mode_name, mode_desc) in [
        (
            BatchMode::PerLane,
            "batch_sweep_perlane",
            "per-lane controllers — every lane bitwise identical to its scalar solve",
        ),
        (
            BatchMode::Shared,
            "batch_sweep_shared",
            "one shared controller (error norm = max over lanes) — one accept/reject \
             decision propagates the whole sweep",
        ),
    ] {
        kernels.push(timed_batch_kernel(
            mode_name,
            format!(
                "the same {grid}-occupancy sweep as one batched SoA drive, {mode_desc}; \
                 rhs_evals counts batched K x B kernel invocations"
            ),
            || {
                let sweep =
                    meanfield::solve_batch(&model, &m0s, theta, &opts, mode).expect("solves");
                let lanes: Vec<(usize, usize, usize, usize)> = sweep
                    .lanes
                    .iter()
                    .enumerate()
                    .map(|(lane, r)| {
                        let s = r
                            .as_ref()
                            .map(|(t, _)| t.trajectory().stats())
                            .unwrap_or_default();
                        (lane, s.accepted, s.rejected, s.rhs_evals)
                    })
                    .collect();
                let accepted = lanes.iter().map(|&(_, a, _, _)| a).sum();
                (
                    (sweep.stats.batch_rhs_calls, accepted),
                    BatchDetail {
                        width: sweep.stats.width,
                        detached: sweep.stats.detached,
                        restarts: sweep.stats.restarts,
                        lanes,
                    },
                )
            },
        ));
    }

    let sol = meanfield::solve(&model, &m0s[0], theta, &opts).expect("solves");
    let gen = sol.generator();
    kernels.push(timed_kernel(
        "transition_matrix",
        format!(
            "forward Kolmogorov matrix transient (Eq. 5) of the Setting-2 trajectory \
             generator over T in [0, {theta}], Q(t) memoized by Runge-Kutta stage time"
        ),
        || {
            let traj = transition_matrix_trajectory(&gen, 0.0, theta, &opts).expect("integrates");
            stats_of(&traj)
        },
    ));

    // Eq. 6 window propagation on a generator that settles exactly at
    // t* = 2, so the full integration and the steady-regime hand-off solve
    // the same problem and the saved Runge-Kutta stages are visible.
    let settling = FnGenerator::new(2, |t: f64, q: &mut Matrix| {
        let s = (2.0 - t).max(0.0);
        let r = 1.0 + s * s;
        q[(0, 0)] = -r;
        q[(0, 1)] = r;
        q[(1, 0)] = 0.7;
        q[(1, 1)] = -0.7;
    });
    let t_end = if smoke { 10.0 } else { 40.0 };
    let duration = 0.8;
    let init = transition_matrix(&settling, 0.0, duration, &opts).expect("integrates");

    kernels.push(timed_kernel(
        "window_full",
        format!(
            "combined-window propagation (Eq. 6, T = {duration}) over t in [0, {t_end}] of a \
             generator constant from t = 2, integrated as a matrix ODE throughout"
        ),
        || {
            let traj = propagate_window(&settling, &init, 0.0, t_end, duration, &opts)
                .expect("propagates");
            stats_of(&traj)
        },
    ));

    kernels.push(timed_kernel(
        "window_fastpath",
        "the same propagation with the steady-regime hand-off: matrix ODE up to t* = 2, then \
         one uniformization (Eq. 14/15) covers the constant tail"
            .to_string(),
        || {
            let tail = ConstantTail {
                t_star: 2.0,
                eps: mfcsl_ctmc::transient::DEFAULT_EPSILON,
            };
            let traj =
                propagate_window_from(&settling, &init, 0.0, t_end, duration, &opts, Some(&tail))
                    .expect("propagates");
            stats_of(&traj)
        },
    ));

    // Large-K sparse-lane kernels on the bounded-queue model: steady state
    // through GMRES on the CSC generator and the vector-path until, the two
    // solves the dense lane cannot reach at these sizes. `peak_bytes` is
    // the headline number — it must stay below one dense K×K matrix
    // (8·K² bytes), demonstrating the lane runs in O(nnz) memory.
    let caps: &[usize] = if smoke { &[64, 256] } else { &[64, 256, 1024] };
    for &k in caps {
        let params = mfcsl_models::queueing::Params {
            cap: k - 1,
            ..mfcsl_models::queueing::default_params()
        };
        let qmodel = mfcsl_models::queueing::model(params).expect("valid params");
        let m0 = Occupancy::unit(k, 0).expect("valid occupancy");
        let horizon = 1.0;
        // The mean-field solve and model plumbing stay outside the
        // brackets: the kernels charge only the sparse solves themselves.
        let sol = meanfield::solve(&qmodel, &m0, horizon, &opts).expect("solves");
        let frozen_m = sol.occupancy_at(horizon);

        kernels.push(timed_kernel(
            format!("sparse_steady_k{k}"),
            format!(
                "stationary distribution of the K = {k} bounded-queue chain frozen at the \
                 t = {horizon} occupancy: CSC assembly + bordered GMRES (power-iteration \
                 fallback), never materializing the dense generator"
            ),
            || {
                let (from, to) = qmodel.sparsity();
                let mut rates = vec![0.0; from.len()];
                qmodel.write_rates_at(&frozen_m, &mut rates);
                let triplets: Vec<(usize, usize, f64)> = from
                    .iter()
                    .zip(to)
                    .zip(&rates)
                    .map(|((&f, &t), &r)| (f, t, r))
                    .collect();
                let chain = mfcsl_ctmc::sparse::SparseCtmc::from_triplets(k, &triplets)
                    .expect("valid chain");
                let pi = mfcsl_ctmc::steady::steady_state_sparse(&chain).expect("converges");
                assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                (0, 0)
            },
        ));

        let tv = sol.local_tv_model().expect("valid model");
        let sat2 = tv.sat_ap("congested").expect("labeled");
        kernels.push(timed_kernel(
            format!("sparse_until_k{k}"),
            format!(
                "EP[ tt U[0,0.8] congested ] on the K = {k} bounded-queue trajectory via the \
                 vector-path backward solve: one length-K payload through the sparse \
                 time-varying generator instead of a K x K matrix transient"
            ),
            || {
                let interval = mfcsl_csl::TimeInterval::new(0.0, 0.8).expect("valid interval");
                let p = mfcsl_csl::until::until_probabilities_sparse(
                    &tv,
                    &vec![true; k],
                    &sat2,
                    interval,
                    &mfcsl_csl::Tolerances::default(),
                )
                .expect("solves")
                .expect("sparse lane engages at this size");
                assert_eq!(p.len(), k);
                (0, 0)
            },
        ));
    }

    kernels
}

/// Hand-rolled JSON for `BENCH_solver.json` (same reason as
/// [`render_json`]: the workspace's serde stub has no serializer).
fn render_solver_json(kernels: &[KernelReport], smoke: bool) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"solver\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"git_revision\": \"{}\",", git_revision());
    let _ = writeln!(
        out,
        "  \"threads_available\": {},",
        mfcsl_pool::default_parallelism()
    );
    let _ = writeln!(
        out,
        "  \"allocation_counters\": {},",
        alloc_counter::installed()
    );
    let _ = writeln!(out, "  \"kernels\": [");
    for (i, k) in kernels.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", k.name);
        let _ = writeln!(out, "      \"description\": \"{}\",", k.description);
        let _ = writeln!(out, "      \"wall_seconds\": {:.6},", k.wall_seconds);
        let _ = writeln!(out, "      \"rhs_evals\": {},", k.rhs_evals);
        let _ = writeln!(out, "      \"accepted_steps\": {},", k.accepted_steps);
        let _ = writeln!(out, "      \"allocations\": {},", k.allocations);
        if let Some(b) = &k.batch {
            let _ = writeln!(out, "      \"peak_bytes\": {},", k.peak_bytes);
            let _ = writeln!(out, "      \"batch_width\": {},", b.width);
            let _ = writeln!(out, "      \"detached\": {},", b.detached);
            let _ = writeln!(out, "      \"restarts\": {},", b.restarts);
            let _ = writeln!(out, "      \"lanes\": [");
            for (li, (lane, accepted, rejected, rhs_evals)) in b.lanes.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "        {{\"lane\": {lane}, \"accepted\": {accepted}, \
                     \"rejected\": {rejected}, \"rhs_evals\": {rhs_evals}}}{}",
                    if li + 1 < b.lanes.len() { "," } else { "" }
                );
            }
            let _ = writeln!(out, "      ]");
        } else {
            let _ = writeln!(out, "      \"peak_bytes\": {}", k.peak_bytes);
        }
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 < kernels.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

/// What the regression gate needs from a previous `BENCH_check.json`.
struct Baseline {
    smoke: bool,
    threads_available: usize,
    git_revision: String,
    /// Serial (1-thread) wall-clock per workload name.
    serial_walls: Vec<(String, f64)>,
}

/// Extracts the gate-relevant fields from a report produced by
/// [`render_json`] with a line-oriented scan (no JSON parser in the
/// offline workspace). Returns `None` when a required field is missing.
fn parse_baseline(text: &str) -> Option<Baseline> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = line.trim().strip_prefix(key)?;
        Some(rest.trim_end_matches(','))
    }
    let mut bench = None;
    let mut smoke = None;
    let mut threads_available = None;
    let mut git_revision = String::from("unknown");
    let mut serial_walls = Vec::new();
    let mut workload: Option<String> = None;
    for line in text.lines() {
        if let Some(v) = field(line, "\"bench\": ") {
            bench = Some(v.trim_matches('"').to_string());
        } else if let Some(v) = field(line, "\"smoke\": ") {
            smoke = v.parse::<bool>().ok();
        } else if let Some(v) = field(line, "\"threads_available\": ") {
            threads_available = v.parse::<usize>().ok();
        } else if let Some(v) = field(line, "\"git_revision\": ") {
            git_revision = v.trim_matches('"').to_string();
        } else if let Some(v) = field(line, "\"name\": ") {
            workload = Some(v.trim_matches('"').to_string());
        } else if line.contains("\"threads\": 1,") {
            // The first run of each workload is the serial one.
            if let Some(name) = workload.take() {
                let wall = line
                    .split("\"wall_seconds\": ")
                    .nth(1)?
                    .split(',')
                    .next()?
                    .trim()
                    .parse::<f64>()
                    .ok()?;
                serial_walls.push((name, wall));
            }
        }
    }
    if bench.as_deref() != Some("check") {
        return None;
    }
    Some(Baseline {
        smoke: smoke?,
        threads_available: threads_available?,
        git_revision,
        serial_walls,
    })
}

/// What the solver-kernel gate needs from a previous `BENCH_solver.json`:
/// `(name, wall_seconds, rhs_evals)` per kernel, plus the commensurability
/// fields.
struct SolverBaseline {
    smoke: bool,
    threads_available: usize,
    git_revision: String,
    kernels: Vec<(String, f64, usize)>,
}

/// Line-oriented scan of a report produced by [`render_solver_json`]. The
/// per-lane objects of the batched kernels render as compact one-line
/// `{"lane": …}` entries, so the kernel-level `"rhs_evals"` scan below never
/// matches them.
fn parse_solver_baseline(text: &str) -> Option<SolverBaseline> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = line.trim().strip_prefix(key)?;
        Some(rest.trim_end_matches(','))
    }
    let mut bench = None;
    let mut smoke = None;
    let mut threads_available = None;
    let mut git_revision = String::from("unknown");
    let mut kernels = Vec::new();
    let mut name: Option<String> = None;
    let mut wall: Option<f64> = None;
    for line in text.lines() {
        if let Some(v) = field(line, "\"bench\": ") {
            bench = Some(v.trim_matches('"').to_string());
        } else if let Some(v) = field(line, "\"smoke\": ") {
            smoke = v.parse::<bool>().ok();
        } else if let Some(v) = field(line, "\"threads_available\": ") {
            threads_available = v.parse::<usize>().ok();
        } else if let Some(v) = field(line, "\"git_revision\": ") {
            git_revision = v.trim_matches('"').to_string();
        } else if let Some(v) = field(line, "\"name\": ") {
            name = Some(v.trim_matches('"').to_string());
        } else if let Some(v) = field(line, "\"wall_seconds\": ") {
            wall = v.parse::<f64>().ok();
        } else if let Some(v) = field(line, "\"rhs_evals\": ") {
            if let (Some(n), Some(w), Ok(evals)) = (name.take(), wall.take(), v.parse::<usize>()) {
                kernels.push((n, w, evals));
            }
        }
    }
    if bench.as_deref() != Some("solver") {
        return None;
    }
    Some(SolverBaseline {
        smoke: smoke?,
        threads_available: threads_available?,
        git_revision,
        kernels,
    })
}

/// Compares this run's solver kernels against a previous
/// `BENCH_solver.json`, gating on wall-clock AND RHS-evaluation counts.
/// Wall-clock uses the same tolerance and noise floor as the workload gate;
/// RHS evals are deterministic counters, so they get the tolerance but no
/// noise floor. Returns the process exit code: 0 on pass or refused
/// comparison, 1 on a regression or an unreadable baseline.
fn solver_regression_gate(path: &str, kernels: &[KernelReport], smoke: bool) -> i32 {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("solver gate: cannot read {path}");
        return 1;
    };
    let Some(base) = parse_solver_baseline(&text) else {
        eprintln!("solver gate: {path} is not a bench_check solver report");
        return 1;
    };
    let threads_available = mfcsl_pool::default_parallelism();
    if base.threads_available != threads_available || base.smoke != smoke {
        println!(
            "solver gate: refusing to compare against {path} (rev {}): baseline has \
             threads_available={} smoke={}, this run has threads_available={} smoke={} — \
             wall-clock from differing hosts or modes is not commensurable",
            base.git_revision, base.threads_available, base.smoke, threads_available, smoke
        );
        return 0;
    }
    let mut failed = false;
    for k in kernels {
        let Some((_, base_wall, base_evals)) =
            base.kernels.iter().find(|(name, _, _)| *name == k.name)
        else {
            println!("solver gate: {:<22} not in baseline, skipped", k.name);
            continue;
        };
        let wall_ratio = k.wall_seconds / base_wall;
        let wall_verdict = if k.wall_seconds < GATE_NOISE_FLOOR && *base_wall < GATE_NOISE_FLOOR {
            "ok (below noise floor)"
        } else if wall_ratio > GATE_TOLERANCE {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "solver gate: {:<22} wall {:.4}s vs {base_wall:.4}s (rev {}) = {wall_ratio:.2}x  {wall_verdict}",
            k.name, k.wall_seconds, base.git_revision
        );
        if *base_evals > 0 {
            let eval_ratio = k.rhs_evals as f64 / *base_evals as f64;
            let eval_verdict = if eval_ratio > GATE_TOLERANCE {
                failed = true;
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "solver gate: {:<22} rhs_evals {} vs {base_evals} = {eval_ratio:.2}x  {eval_verdict}",
                k.name, k.rhs_evals
            );
        }
    }
    i32::from(failed)
}

/// Compares this run's serial wall-clock against a previous report.
/// Returns the process exit code: 0 on pass or refused comparison, 1 on a
/// regression or an unreadable baseline.
fn regression_gate(path: &str, reports: &[WorkloadReport], smoke: bool) -> i32 {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("baseline gate: cannot read {path}");
        return 1;
    };
    let Some(base) = parse_baseline(&text) else {
        eprintln!("baseline gate: {path} is not a bench_check report");
        return 1;
    };
    let threads_available = mfcsl_pool::default_parallelism();
    if base.threads_available != threads_available || base.smoke != smoke {
        println!(
            "baseline gate: refusing to compare against {path} (rev {}): baseline has \
             threads_available={} smoke={}, this run has threads_available={} smoke={} — \
             wall-clock from differing hosts or modes is not commensurable",
            base.git_revision, base.threads_available, base.smoke, threads_available, smoke
        );
        return 0;
    }
    let mut failed = false;
    for r in reports {
        let Some((_, base_wall)) = base.serial_walls.iter().find(|(name, _)| name == r.name) else {
            println!("baseline gate: {:<12} not in baseline, skipped", r.name);
            continue;
        };
        let wall = r.runs[0].1;
        let ratio = wall / base_wall;
        let verdict = if wall < GATE_NOISE_FLOOR && *base_wall < GATE_NOISE_FLOOR {
            "ok (below noise floor)"
        } else if ratio > GATE_TOLERANCE {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "baseline gate: {:<12} serial {wall:.4}s vs {base_wall:.4}s (rev {}) = {ratio:.2}x  {verdict}",
            r.name, base.git_revision
        );
    }
    i32::from(failed)
}
