//! `check_virus` and `check_queue`: closed-loop offline checking through
//! `mfcsl_core`'s `CheckSession`, with batches fanned out on a pool of
//! `nproc` threads.
//!
//! Each op builds fresh sessions, so every op pays the whole pipeline:
//! mean-field solve, stationary regime, CSL sets and curves. An untraced
//! run makes several passes over its ops, each on a fresh set-up, and
//! takes each op's fastest pass as its latency. The traced run
//! replays the same ops as public calls in dependency order on one
//! session, so each span holds one layer's work: the mean-field solve
//! (`meanfield::solve_faulted`, installed with `restore_trajectory`), the
//! stationary regime, then one `check` per formula, and for the sweep the
//! batched `prewarm` before `csat_sweep`. The traced results must equal the
//! untraced ones bitwise.

use std::sync::Arc;
use std::time::Instant;

use mfcsl_core::mfcsl::{parse_formula, CheckSession, MfFormula};
use mfcsl_core::{meanfield, CoreError, LocalModel, Occupancy};
use mfcsl_models::{queueing, virus};
use mfcsl_pool::ThreadPool;

use crate::inputs::{fnv1a, virus_m0_at, Rng};
use crate::report::Outcome;
use crate::trace::{self, Tracer};
use crate::{alloc, stats, RunArgs, SETUPS_PER_PASS};

/// Op executions per second of run time on the reference host, used to
/// size the fixed op count of a run.
const VIRUS_OPS_PER_S: f64 = 200.0;
const QUEUE_OPS_PER_S: f64 = 16.0;
/// Queue capacity of `check_queue` (K = 128 local states).
const QUEUE_CAP: usize = 127;
/// Share of ops re-run on a pool-less session and compared bitwise.
const VERIFY_SHARE: f64 = 0.05;
/// Ops run by each set-up to warm caches and the pool.
const WARMUP_OPS: usize = 4;

/// The formulas of a workload, each with the span its `check` records in
/// the traced run.
struct Spec {
    formulas: &'static [(&'static str, &'static str)],
    /// `(formula, θ, occupancies per sweep)` of the `csat_sweep` half.
    csat: Option<(&'static str, f64, usize)>,
    ops_per_s: f64,
    /// Passes of an untraced run over its ops. An op's latency is its
    /// fastest pass; the queue ops are costly, so they get two passes to
    /// keep over 100 distinct ops in a run.
    passes: usize,
}

const VIRUS: Spec = Spec {
    formulas: &[
        ("E{<0.3}[ infected ]", "csl.sat"),
        ("ES{>0.1}[ infected ]", "csl.sat"),
        ("EP{<0.3}[ not_infected U[0,1] infected ]", "csl.until"),
        (
            "EP{>0.1}[ infected U[0,15] P{>0.8}[ tt U[0,0.5] infected ] ]",
            "csl.nested",
        ),
        (
            "E{>0.8}[ P{>0.9}[ infected U[0,15] P{>0.8}[ tt U[0,0.5] infected ] ] ]",
            "csl.nested",
        ),
    ],
    csat: Some(("E{<0.4}[ infected ]", 15.0, 4)),
    ops_per_s: VIRUS_OPS_PER_S,
    passes: 3,
};

const QUEUE: Spec = Spec {
    formulas: &[
        ("ES{<0.2}[ congested ]", "csl.sat"),
        ("EP{<0.5}[ tt U[0,0.8] congested ]", "csl.until"),
        ("E{<0.3}[ congested ]", "csl.sat"),
    ],
    csat: None,
    ops_per_s: QUEUE_OPS_PER_S,
    passes: 2,
};

struct Op {
    m0: Occupancy,
    csat_m0s: Vec<Occupancy>,
}

/// The models and parsed formulas an op runs against.
struct Ctx {
    check_model: LocalModel,
    csat_model: Option<LocalModel>,
    formulas: Vec<MfFormula>,
    /// The span each formula's `check` records in the traced run.
    spans: Vec<&'static str>,
    horizon: f64,
    needs_regime: bool,
    csat: Option<(MfFormula, f64)>,
}

/// Engine counters of one op.
#[derive(Default, Clone, Copy)]
struct Counters {
    trajectory_solves: u64,
    regime_solves: u64,
    set_misses: u64,
    curve_misses: u64,
    rhs_evals: u64,
    batch_lanes: u64,
}

impl Counters {
    fn add(&mut self, s: &mfcsl_core::mfcsl::EngineStats) {
        self.trajectory_solves += s.trajectory_solves;
        self.regime_solves += s.regime_solves;
        self.set_misses += s.cache.set_misses;
        self.curve_misses += s.cache.curve_misses;
        self.rhs_evals += s.total_rhs_evals() as u64;
        self.batch_lanes += s.batch_prewarmed;
    }
}

fn spec(workload: &str) -> &'static Spec {
    if workload == "check_queue" {
        &QUEUE
    } else {
        &VIRUS
    }
}

fn build_ctx(workload: &str) -> Result<Ctx, CoreError> {
    let spec = spec(workload);
    let (check_model, csat_model) = if workload == "check_queue" {
        let params = queueing::Params {
            cap: QUEUE_CAP,
            ..queueing::default_params()
        };
        (queueing::model(params)?, None)
    } else {
        let law = virus::InfectionLaw::SmartVirus;
        (
            virus::model(virus::setting_1(), law)?,
            Some(virus::model(virus::setting_2(), law)?),
        )
    };
    let formulas = spec
        .formulas
        .iter()
        .map(|(text, _)| parse_formula(text))
        .collect::<Result<Vec<_>, CoreError>>()?;
    let horizon = formulas
        .iter()
        .map(MfFormula::time_horizon)
        .fold(0.0, f64::max);
    let needs_regime = formulas.iter().any(MfFormula::requires_stationary);
    let csat = match spec.csat {
        Some((text, theta, _)) => Some((parse_formula(text)?, theta)),
        None => None,
    };
    Ok(Ctx {
        check_model,
        csat_model,
        formulas,
        spans: spec.formulas.iter().map(|(_, span)| *span).collect(),
        horizon,
        needs_regime,
        csat,
    })
}

fn make_ops(workload: &str, rng: &mut Rng, n: usize) -> Result<Vec<Op>, CoreError> {
    let spec = spec(workload);
    if workload == "check_queue" {
        // Unit occupancies e_i, the queue lengths stratified over the ops.
        return rng
            .stratified(n, 0.0, (QUEUE_CAP + 1) as f64)
            .into_iter()
            .map(|x| {
                Ok(Op {
                    m0: Occupancy::unit(QUEUE_CAP + 1, x as usize)?,
                    csat_m0s: Vec::new(),
                })
            })
            .collect();
    }
    // A Latin hypercube: every coordinate is stratified over the ops. Which
    // strata meet in one op is fixed, by permutations from a seed-free
    // stream, so every seed runs the same mix of op costs (and the same
    // heaviest op); the seed draws each value within its stratum and
    // orders the ops. The sweep's cost follows its most active occupancy,
    // so lane `j` takes its active share from the `j`-th of `sweep`
    // strata: every sweep spans the same range.
    let mut pairing = Rng::for_workload(0, "check_virus pairing");
    let mut coordinate = |lo: f64, hi: f64| -> Vec<f64> {
        let values = rng.jittered(n, lo, hi);
        let mut perm: Vec<usize> = (0..n).collect();
        pairing.shuffle(&mut perm);
        perm.into_iter().map(|k| values[k]).collect()
    };
    let sweep = spec.csat.map_or(0, |(_, _, k)| k);
    let check = (coordinate(0.0, 1.0), coordinate(0.0, 1.0));
    let lanes: Vec<(Vec<f64>, Vec<f64>)> = (0..sweep)
        .map(|j| {
            let (lo, hi) = (j as f64 / sweep as f64, (j + 1) as f64 / sweep as f64);
            (coordinate(0.0, 1.0), coordinate(lo, hi))
        })
        .collect();
    let mut ops = (0..n)
        .map(|i| {
            Ok(Op {
                m0: Occupancy::new(virus_m0_at(check.0[i], check.1[i]).to_vec())?,
                csat_m0s: lanes
                    .iter()
                    .map(|(inf, act)| Occupancy::new(virus_m0_at(inf[i], act[i]).to_vec()))
                    .collect::<Result<_, _>>()?,
            })
        })
        .collect::<Result<Vec<Op>, CoreError>>()?;
    rng.shuffle(&mut ops);
    Ok(ops)
}

fn session<'a>(model: &'a LocalModel, pool: Option<&Arc<ThreadPool>>) -> CheckSession<'a> {
    let s = CheckSession::new(model);
    match pool {
        Some(p) => s.with_pool(Arc::clone(p)),
        None => s,
    }
}

/// One op as a user runs it: `check_all` on a fresh session, then the
/// `csat_sweep` on another. Returns the results rendered bit-exactly
/// (`Debug` prints every `f64` round-trip) and, when asked, the counters.
fn run_op(
    ctx: &Ctx,
    op: &Op,
    pool: Option<&Arc<ThreadPool>>,
    counters: Option<&mut Counters>,
) -> Result<String, CoreError> {
    let s1 = session(&ctx.check_model, pool);
    let verdicts = s1.check_all(&ctx.formulas, &op.m0)?;
    let mut sets = Vec::new();
    let mut c = Counters::default();
    let want = counters.is_some();
    if want {
        c.add(&s1.stats());
    }
    drop(s1);
    if let (Some(model), Some((psi, theta))) = (&ctx.csat_model, &ctx.csat) {
        let s2 = session(model, pool);
        sets = s2.csat_sweep(psi, &op.csat_m0s, *theta)?;
        if want {
            c.add(&s2.stats());
        }
    }
    if let Some(out) = counters {
        *out = c;
    }
    Ok(format!("{verdicts:?} {sets:?}"))
}

/// The same op as public calls in dependency order, one span each.
fn run_op_traced(
    ctx: &Ctx,
    op: &Op,
    pool: &Arc<ThreadPool>,
    tr: &mut Tracer,
    id: u32,
) -> Result<String, CoreError> {
    let root = tr.open("op", id, None);
    let p = Some(root);
    let s1 = tr.span("core.session", id, p, || {
        session(&ctx.check_model, Some(pool))
    });
    let traj = tr.span("ode.solve", id, p, || {
        let ode = &s1.checker().tolerances().ode;
        meanfield::solve_faulted(&ctx.check_model, &op.m0, ctx.horizon, ode, None)
    })?;
    tr.span("core.install", id, p, || {
        s1.restore_trajectory(&op.m0, traj.trajectory().clone())
    })?;
    drop(traj);
    if ctx.needs_regime {
        tr.span("ctmc.regime", id, p, || s1.stationary_regime(&op.m0))?;
    }
    let mut verdicts = Vec::with_capacity(ctx.formulas.len());
    for (psi, name) in ctx.formulas.iter().zip(&ctx.spans) {
        verdicts.push(tr.span(name, id, p, || s1.check(psi, &op.m0))?);
    }
    drop(s1);
    let mut sets = Vec::new();
    if let (Some(model), Some((psi, theta))) = (&ctx.csat_model, &ctx.csat) {
        let s2 = tr.span("core.session", id, p, || session(model, Some(pool)));
        tr.span("ode.solve", id, p, || {
            s2.prewarm(&op.csat_m0s, theta + psi.time_horizon())
        })?;
        sets = tr.span("csl.csat", id, p, || {
            s2.csat_sweep(psi, &op.csat_m0s, *theta)
        })?;
    }
    tr.close(root);
    Ok(format!("{verdicts:?} {sets:?}"))
}

struct Setup {
    ctx: Ctx,
    pool: Arc<ThreadPool>,
    seconds: Vec<f64>,
}

/// Builds models and pool and runs the warm-up ops, `repeats` times;
/// keeps the last.
fn setup(args: &RunArgs, warmup: &[Op], repeats: usize) -> Result<Setup, String> {
    let mut seconds = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t = Instant::now();
        let ctx = build_ctx(args.workload).map_err(|e| format!("build models: {e}"))?;
        let pool = Arc::new(ThreadPool::new(args.nproc));
        for op in warmup {
            run_op(&ctx, op, Some(&pool), None).map_err(|e| format!("warm-up op: {e}"))?;
        }
        seconds.push(t.elapsed().as_secs_f64());
        last = Some((ctx, pool));
    }
    let (ctx, pool) = last.ok_or("no setup ran")?;
    Ok(Setup { ctx, pool, seconds })
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let spec = spec(args.workload);
    let mut rng = Rng::for_workload(args.seed, args.workload);
    // Distinct ops: an untraced run makes `spec.passes` passes over them, a
    // traced run one untraced and one traced pass.
    let n = ((args.seconds * spec.ops_per_s / spec.passes as f64).ceil() as usize).max(20);
    let ops = make_ops(args.workload, &mut rng, n).map_err(|e| e.to_string())?;
    // Set-up runs the same warm-up ops at every seed.
    let warmup = make_ops(
        args.workload,
        &mut Rng::for_workload(0, "warm-up"),
        WARMUP_OPS,
    )
    .map_err(|e| e.to_string())?;
    let verify: Vec<bool> = (0..ops.len())
        .map(|i| i == 0 || rng.unit() < VERIFY_SHARE)
        .collect();
    let (passes, setups) = if args.trace {
        (1, 1)
    } else {
        (spec.passes, SETUPS_PER_PASS)
    };
    let mut out = Outcome::new();
    out.note(format!(
        "{}: {} ops x {passes} passes closed loop, pool {} threads, {} verified against a serial session",
        args.workload,
        ops.len(),
        args.nproc,
        verify.iter().filter(|v| **v).count()
    ));

    // Untraced passes: the end-to-end numbers (and, in a traced run, the
    // baseline the trace is compared with). Every pass must give the
    // first pass's bits.
    let mut setup_s = Vec::with_capacity(passes * setups);
    let mut last = None;
    let mut peak = 0;
    let mut times = vec![Vec::with_capacity(ops.len()); passes];
    let mut pass_rates = Vec::with_capacity(passes);
    let mut digests = vec![0u64; ops.len()];
    let mut results: Vec<Option<String>> = vec![None; ops.len()];
    let mut counters = vec![Counters::default(); if args.trace { ops.len() } else { 0 }];
    let mut allocs = Vec::with_capacity(ops.len());
    let mut peaks = Vec::with_capacity(ops.len());
    let mut tasks = Vec::with_capacity(ops.len());
    for (pass, pass_times) in times.iter_mut().enumerate() {
        drop(last.take());
        let Setup { ctx, pool, seconds } = setup(args, &warmup, setups)?;
        setup_s.extend(seconds);
        let baseline = alloc::reset_peak();
        let started = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            let (tasks0, allocs0, op_base) = if args.trace {
                (
                    pool.stats().total_tasks,
                    alloc::allocations(),
                    alloc::reset_peak(),
                )
            } else {
                (0, 0, 0)
            };
            let t = Instant::now();
            let result = run_op(&ctx, op, Some(&pool), counters.get_mut(i));
            pass_times.push(t.elapsed().as_secs_f64() * 1e6);
            if args.trace {
                allocs.push((alloc::allocations() - allocs0) as f64);
                peaks.push(alloc::peak_above(op_base) as f64 / 1024.0);
                tasks.push((pool.stats().total_tasks - tasks0) as f64);
            }
            out.attempted += 1;
            match result {
                Ok(r) if pass == 0 => {
                    digests[i] = fnv1a(r.as_bytes());
                    if verify[i] || args.trace {
                        results[i] = Some(r);
                    }
                }
                Ok(r) => {
                    if fnv1a(r.as_bytes()) != digests[i] {
                        out.mismatch(format!("op {i}: pass {pass} differs from pass 0"));
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.note(format!("op {i} failed: {e}"));
                }
            }
        }
        pass_rates.push(ops.len() as f64 / started.elapsed().as_secs_f64());
        peak = peak.max(alloc::peak_above(baseline));
        last = Some((ctx, pool));
    }
    let (ctx, pool) = last.ok_or("no pass ran")?;
    let latencies = stats::fastest_over_passes(&times);
    out.note(format!(
        "pass rates {:?} ops/s; set-ups {:?} ms",
        pass_rates
            .iter()
            .map(|r| (r * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
        setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 10.0)
            .collect::<Vec<_>>()
    ));

    // Bitwise check of a seeded subset against a pool-less session.
    for (i, op) in ops.iter().enumerate().filter(|(i, _)| verify[*i]) {
        let Some(got) = &results[i] else { continue };
        let mut expected =
            run_op(&ctx, op, None, None).map_err(|e| format!("serial op {i}: {e}"))?;
        if args.corrupt_reference {
            expected.push('!');
        }
        if *got != expected {
            out.mismatch(format!(
                "op {i}: pooled result differs from the serial session"
            ));
        }
    }

    if !args.trace {
        out.set("setup_s", stats::median(&setup_s));
        out.set("p50_us", stats::quantile(&latencies, 0.5));
        out.set("p90_us", stats::quantile(&latencies, 0.9));
        out.set(
            "ops_per_s",
            ops.len() as f64 / (latencies.iter().sum::<f64>() / 1e6),
        );
        out.set("peak_mem_mb", peak as f64 / (1024.0 * 1024.0));
        return Ok(out);
    }

    // Traced pass over the same ops.
    let mut tr = Tracer::with_capacity(ops.len() * 16);
    let mut traced = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let t = Instant::now();
        let result = run_op_traced(&ctx, op, &pool, &mut tr, i as u32);
        traced.push(t.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        match (result, &results[i]) {
            (Ok(r), Some(untraced)) if r == *untraced => {}
            (Ok(_), Some(_)) => {
                out.mismatch(format!("op {i}: traced result differs from untraced"))
            }
            (Ok(_), None) => {}
            (Err(e), _) => {
                out.failed += 1;
                out.note(format!("traced op {i} failed: {e}"));
            }
        }
    }
    let per_op = |f: fn(&Counters) -> u64| {
        counters.iter().map(|c| f(c) as f64).sum::<f64>() / counters.len() as f64
    };
    out.set("core.trajectory_solves", per_op(|c| c.trajectory_solves));
    out.set("core.regime_solves", per_op(|c| c.regime_solves));
    out.set("csl.set_misses", per_op(|c| c.set_misses));
    out.set("csl.curve_misses", per_op(|c| c.curve_misses));
    out.set("ode.rhs_evals", per_op(|c| c.rhs_evals));
    out.set("ode.batch_lanes", per_op(|c| c.batch_lanes));
    out.set(
        "pool.tasks_per_op",
        tasks.iter().sum::<f64>() / tasks.len() as f64,
    );
    out.set(
        "math.allocs_per_op",
        allocs.iter().sum::<f64>() / allocs.len() as f64,
    );
    out.set("math.peak_heap_kb", stats::median(&peaks));
    out.set("loadgen.p99_us", stats::quantile(&latencies, 0.99));
    layer_metrics(&mut out, &tr, &latencies, &traced);
    out.note(format!(
        "untraced p50 {:.1} us, traced p50 {:.1} us, {} spans",
        stats::median(&latencies),
        stats::median(&traced),
        tr.spans().len()
    ));
    if let Some(path) = &args.trace_out {
        tr.write_json(path, args.workload, args.seed)
            .map_err(|e| format!("write trace: {e}"))?;
    }
    Ok(out)
}

/// Per-layer self-time medians from the spans, plus the two consistency
/// numbers: how the medians add up against the untraced op, and what
/// tracing cost.
fn layer_metrics(out: &mut Outcome, tr: &Tracer, untraced: &[f64], traced: &[f64]) {
    let ops = traced.len();
    let by_op = trace::self_us_by_op(tr.spans(), ops);
    let p50 = |names: &[&str]| trace::p50_self_us(&by_op, ops, names);
    let layers: [(&'static str, &[&str]); 7] = [
        ("ode.solve_us", &["ode.solve"]),
        ("ctmc.regime_us", &["ctmc.regime"]),
        ("csl.sat_us", &["csl.sat"]),
        ("csl.until_us", &["csl.until"]),
        ("csl.nested_us", &["csl.nested"]),
        ("csl.csat_us", &["csl.csat"]),
        (
            "core.unattributed_us",
            &["op", "core.session", "core.install"],
        ),
    ];
    let mut sum = 0.0;
    for (metric, names) in layers {
        let v = p50(names);
        sum += v;
        out.set(metric, v);
    }
    let base = stats::median(untraced);
    out.set("trace.self_sum_frac", sum / base);
    out.set("trace.overhead_frac", stats::median(traced) / base - 1.0);
}
