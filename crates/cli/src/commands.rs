//! Implementations of the CLI subcommands.
//!
//! Each command takes parsed inputs and returns its report as a `String`,
//! which keeps the logic unit-testable; `main` only does argument parsing
//! and printing.

use std::fmt::Write as _;
use std::sync::Arc;

use mfcsl_core::fixedpoint::{self, FixedPointOptions};
use mfcsl_core::mfcsl::{parse_formula, CheckSession, EngineStats, MfFormula, SolveKind};
use mfcsl_core::{meanfield, LocalModel, Occupancy};
use mfcsl_csl::Tolerances;
use mfcsl_math::alloc_counter;
use mfcsl_ode::{BatchMode, OdeOptions};
use mfcsl_pool::{PoolStats, ThreadPool};

/// Error type of the CLI layer: a human-readable message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

macro_rules! from_error {
    ($($ty:ty),* $(,)?) => {
        $(impl From<$ty> for CliError {
            fn from(e: $ty) -> Self {
                CliError(e.to_string())
            }
        })*
    };
}

from_error!(
    mfcsl_core::CoreError,
    mfcsl_csl::CslError,
    mfcsl_ode::OdeError,
    mfcsl_math::MathError,
    crate::model_file::ModelFileError,
    crate::expr::ExprError,
);

/// Parses a comma-separated occupancy vector (`0.8,0.15,0.05`).
///
/// # Errors
///
/// Returns [`CliError`] for malformed numbers or an invalid distribution.
pub fn parse_occupancy(text: &str) -> Result<Occupancy, CliError> {
    let fractions: Result<Vec<f64>, _> = text.split(',').map(|p| p.trim().parse::<f64>()).collect();
    let fractions = fractions.map_err(|e| CliError(format!("bad occupancy `{text}`: {e}")))?;
    Occupancy::new(fractions).map_err(|e| CliError(format!("bad occupancy `{text}`: {e}")))
}

/// `mfcsl info <model>` — summarizes a model.
///
/// # Errors
///
/// Propagates evaluation failures as [`CliError`].
pub fn info(
    model: &LocalModel,
    params: &std::collections::BTreeMap<String, f64>,
) -> Result<String, CliError> {
    let mut out = String::new();
    writeln!(out, "states ({}):", model.n_states()).expect("write to string");
    for (i, name) in model.state_names().iter().enumerate() {
        let labels: Vec<String> = model.labeling().of(i).iter().cloned().collect();
        writeln!(out, "  {i}: {name}  [{}]", labels.join(", ")).expect("write to string");
    }
    writeln!(out, "parameters:").expect("write to string");
    for (k, v) in params {
        writeln!(out, "  {k} = {v}").expect("write to string");
    }
    let uniform = Occupancy::uniform(model.n_states())?;
    writeln!(
        out,
        "generator at the uniform occupancy:\n{}",
        model.generator_at(&uniform)?
    )
    .expect("write to string");
    Ok(out)
}

/// `mfcsl check <model> --m0 … [--fast] [--threads N] [--stats]
/// "<formula>"…`.
///
/// All formulas of the invocation are checked through one memoizing
/// [`CheckSession`], so they share the mean-field trajectory (solved once
/// to the batch's maximum horizon), the per-subformula CSL caches, and
/// the stationary regime. The per-formula checks fan out over a thread
/// pool of `threads` lanes (`None` → the machine's available
/// parallelism); verdicts are bitwise identical at any thread count.
/// `--stats` appends the session's counters and the pool's per-thread
/// task counts.
///
/// # Errors
///
/// Propagates parse/check failures as [`CliError`].
pub fn check(
    model: &LocalModel,
    m0: &Occupancy,
    formulas: &[String],
    fast: bool,
    show_stats: bool,
    threads: Option<usize>,
) -> Result<String, CliError> {
    let alloc_base = alloc_counter::begin();
    let psis = parse_formulas(formulas)?;
    let pool = pool(threads);
    let session = session(model, fast).with_pool(Arc::clone(&pool));
    let verdicts = session.check_all(&psis, m0)?;
    let mut out = String::new();
    for (psi, verdict) in psis.iter().zip(&verdicts) {
        out.push_str(&verdict_line(
            &m0.to_string(),
            &psi.to_string(),
            verdict.holds(),
            verdict.is_marginal(),
            fast,
        ));
        out.push('\n');
        if show_stats {
            if let Some(r) = verdict.refinement() {
                writeln!(
                    out,
                    "    refinement: {} round{}, final margin {:.3e}, {}",
                    r.rounds,
                    if r.rounds == 1 { "" } else { "s" },
                    r.final_margin,
                    if r.decided {
                        "decided"
                    } else {
                        "budget exhausted"
                    }
                )
                .expect("write to string");
            }
        }
    }
    if show_stats {
        out.push_str(&format_stats(
            &session.stats(),
            Some(&pool.stats()),
            alloc_base,
        ));
    }
    Ok(out)
}

/// `mfcsl csat <model> --m0 … [--m0 …]… --theta T [--threads N] [--stats]
/// [--batch-shared] "<formula>"…`.
///
/// Like [`check`], all formulas share one [`CheckSession`]. With several
/// `--m0` flags, each formula is swept over all initial occupancies: the
/// missing trajectories are first solved by **one** batched Dopri5 drive
/// ([`CheckSession::prewarm`]), then the per-occupancy checks fan out
/// over the pool, one task per occupancy, with bitwise-identical interval
/// sets at any thread count. `--batch-shared` switches the prewarm from
/// per-lane step-size controllers (bitwise identical to scalar solving)
/// to one shared controller (fewer RHS evaluations, within-tolerance).
/// `--stats` lists each solve with its accepted/rejected step counts and,
/// for batched solves, the lane it rode.
///
/// # Errors
///
/// Propagates parse/check failures as [`CliError`].
pub fn csat(
    model: &LocalModel,
    m0s: &[Occupancy],
    theta: f64,
    formulas: &[String],
    show_stats: bool,
    threads: Option<usize>,
    batch_shared: bool,
) -> Result<String, CliError> {
    let alloc_base = alloc_counter::begin();
    let psis = parse_formulas(formulas)?;
    let pool = pool(threads);
    let mode = if batch_shared {
        BatchMode::Shared
    } else {
        BatchMode::PerLane
    };
    let session = session(model, false)
        .with_pool(Arc::clone(&pool))
        .with_batch_mode(mode);
    let mut out = String::new();
    for psi in &psis {
        for (m0, set) in m0s.iter().zip(session.csat_sweep(psi, m0s, theta)?) {
            writeln!(
                out,
                "cSat({psi}, {m0}, {theta}) = {set}   (measure {:.6})",
                set.measure()
            )
            .expect("write to string");
        }
    }
    if show_stats {
        out.push_str(&format_stats(
            &session.stats(),
            Some(&pool.stats()),
            alloc_base,
        ));
    }
    Ok(out)
}

/// `mfcsl simulate <model> --m0 … --population N [--reps R] [--seed S]
/// [--confidence L] [--sequential HW] [--threads N] "<formula>"…`.
///
/// Statistical model checking at finite `N`: the formulas are estimated
/// by SSA replications through one [`mfcsl_smc::SmcSession`] (shared
/// sampled-path batch) and printed through the same [`verdict_line`] as
/// the mean-field `check`, followed by one estimate line per operator
/// with its confidence interval. `--sequential <hw>` switches from
/// fixed-sample to Chow–Robbins stopping with target half-width `hw`.
///
/// # Errors
///
/// Propagates parse/simulation failures as [`CliError`].
pub fn simulate(
    model: &LocalModel,
    m0: &Occupancy,
    formulas: &[String],
    flags: &crate::args::CommonFlags,
) -> Result<String, CliError> {
    let population = flags
        .population
        .ok_or_else(|| CliError("--population is required for simulate".into()))?;
    let psis = parse_formulas(formulas)?;
    let mut options = mfcsl_smc::SmcOptions::new(population);
    if let Some(reps) = flags.reps {
        options.replications = reps;
    }
    options.seed = flags.seed;
    options.z = z_for_confidence(flags.confidence)?;
    options.threads = flags.threads.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    if let Some(target_half_width) = flags.sequential {
        options.stopping = mfcsl_smc::Stopping::Sequential {
            target_half_width,
            step: options.replications,
            max_replications: options.replications.saturating_mul(50),
        };
    }
    let session = mfcsl_smc::SmcSession::new(model, options)?;
    let verdicts = session.check_all(&psis, m0)?;
    let mut out = String::new();
    for (psi, v) in psis.iter().zip(&verdicts) {
        out.push_str(&verdict_line(
            &m0.to_string(),
            &psi.to_string(),
            v.holds,
            v.marginal,
            false,
        ));
        out.push('\n');
        for op in &v.operators {
            writeln!(
                out,
                "    {}: estimate {:.6} in [{:.6}, {:.6}]  ({} replications, N = {}, {:.0}% CI)",
                op.operator,
                op.estimate.mean,
                op.estimate.lo,
                op.estimate.hi,
                op.estimate.n,
                v.population,
                flags.confidence * 100.0,
            )
            .expect("write to string");
        }
    }
    if flags.stats {
        let s = session.stats();
        writeln!(
            out,
            "smc statistics: {} replications run, {} batch hits, {} batch misses",
            s.replications_run, s.batch_hits, s.batch_misses
        )
        .expect("write to string");
    }
    Ok(out)
}

/// Two-sided z-scores for the supported `--confidence` levels.
fn z_for_confidence(level: f64) -> Result<f64, CliError> {
    const TABLE: &[(f64, f64)] = &[
        (0.80, 1.2816),
        (0.90, 1.6449),
        (0.95, 1.96),
        (0.98, 2.3263),
        (0.99, 2.5758),
        (0.999, 3.2905),
    ];
    for (l, z) in TABLE {
        if (level - l).abs() < 1e-9 {
            return Ok(*z);
        }
    }
    Err(CliError(format!(
        "--confidence {level} is not supported (use 0.8, 0.9, 0.95, 0.98, 0.99 or 0.999)"
    )))
}

/// Renders one verdict line. The offline `check` command and the wire
/// client both print through this helper, so daemon output is bitwise
/// identical to offline output for the same verdicts.
#[must_use]
pub fn verdict_line(m0: &str, psi: &str, holds: bool, marginal: bool, fast: bool) -> String {
    format!(
        "{} {} {}{}{}",
        m0,
        if holds { "⊨" } else { "⊭" },
        psi,
        if marginal {
            "   (marginal: value within numerical margin of the bound)"
        } else {
            ""
        },
        if fast { " (fast tolerances)" } else { "" },
    )
}

fn parse_formulas(formulas: &[String]) -> Result<Vec<MfFormula>, CliError> {
    formulas
        .iter()
        .map(|f| parse_formula(f).map_err(CliError::from))
        .collect()
}

fn session(model: &LocalModel, fast: bool) -> CheckSession<'_> {
    if fast {
        CheckSession::with_tolerances(model, Tolerances::fast())
    } else {
        CheckSession::new(model)
    }
}

/// Builds the checking pool: `--threads N` or the machine's available
/// parallelism.
fn pool(threads: Option<usize>) -> Arc<ThreadPool> {
    Arc::new(match threads {
        Some(n) => ThreadPool::new(n),
        None => ThreadPool::with_default_parallelism(),
    })
}

/// Renders a session's [`EngineStats`] as the `--stats` block.
///
/// `alloc_base` is the allocation-counter snapshot taken when the command
/// started; the allocation line only appears when the binary installed the
/// counting allocator (the `mfcsl` binary does, library tests do not).
fn format_stats(
    stats: &EngineStats,
    pool: Option<&PoolStats>,
    alloc_base: alloc_counter::Snapshot,
) -> String {
    let mut out = String::from("engine statistics:\n");
    writeln!(
        out,
        "  trajectories: {} solved, {} extended, {} reused",
        stats.trajectory_solves, stats.trajectory_extensions, stats.trajectory_reuses
    )
    .expect("write to string");
    writeln!(
        out,
        "  stationary regimes: {} solved, {} reused ({} settle RHS evals)",
        stats.regime_solves, stats.regime_reuses, stats.regime_rhs_evals
    )
    .expect("write to string");
    writeln!(
        out,
        "  recoveries: {} ({} stiff fallbacks)",
        stats.recoveries, stats.stiff_fallbacks
    )
    .expect("write to string");
    writeln!(
        out,
        "  refined verdicts: {} ({} tightening rounds)",
        stats.refined_verdicts, stats.refine_rounds
    )
    .expect("write to string");
    let c = &stats.cache;
    writeln!(
        out,
        "  interned formulas: {} state, {} path",
        c.interned_state_formulas, c.interned_path_formulas
    )
    .expect("write to string");
    writeln!(
        out,
        "  sat sets: {} hits, {} misses ({} cached)",
        c.set_hits, c.set_misses, c.cached_sets
    )
    .expect("write to string");
    writeln!(
        out,
        "  prob curves: {} hits, {} misses ({} cached)",
        c.curve_hits, c.curve_misses, c.cached_curves
    )
    .expect("write to string");
    if stats.batch_prewarmed > 0 {
        writeln!(
            out,
            "  batch prewarm: {} lanes solved by one batched drive",
            stats.batch_prewarmed
        )
        .expect("write to string");
    }
    for s in &stats.solves {
        let lane = match s.batch_lane {
            Some(l) => format!(", batch lane {l}"),
            None => String::new(),
        };
        writeln!(
            out,
            "  {} [{:.3}, {:.3}]: {} steps ({} rejected), {} rhs evals, {:.3} ms{lane}",
            match s.kind {
                SolveKind::Fresh => "solve ",
                SolveKind::Extension => "extend",
                SolveKind::Refinement => "refine",
            },
            s.t_from,
            s.t_to,
            s.ode_steps,
            s.rejected_steps,
            s.rhs_evals,
            s.wall.as_secs_f64() * 1e3
        )
        .expect("write to string");
    }
    let total_rhs: usize = stats.solves.iter().map(|s| s.rhs_evals).sum();
    writeln!(out, "  ode rhs evaluations: {total_rhs} total").expect("write to string");
    if !stats.kernel_allocs.is_empty() {
        out.push_str("  kernel heap peaks (resident matrix bytes above kernel entry):\n");
        for k in &stats.kernel_allocs {
            writeln!(
                out,
                "    {}: {} peak bytes ({} allocations)",
                k.kernel, k.peak_bytes, k.allocations
            )
            .expect("write to string");
        }
    }
    if alloc_counter::installed() {
        let d = alloc_counter::delta(alloc_base);
        writeln!(
            out,
            "  allocations: {} ({} peak bytes above entry)",
            d.allocations, d.peak_bytes
        )
        .expect("write to string");
    }
    if let Some(p) = pool {
        let per_thread: Vec<String> = p.tasks_per_thread.iter().map(u64::to_string).collect();
        writeln!(
            out,
            "  pool: {} threads, {} tasks (per thread: {}), utilization {:.1}%",
            p.threads,
            p.total_tasks,
            per_thread.join("/"),
            p.utilization * 100.0
        )
        .expect("write to string");
    }
    out
}

/// `mfcsl trajectory <model> --m0 … --t-end T [--points N]` — CSV of the
/// occupancy trajectory.
///
/// # Errors
///
/// Propagates solver failures as [`CliError`].
pub fn trajectory(
    model: &LocalModel,
    m0: &Occupancy,
    t_end: f64,
    points: usize,
) -> Result<String, CliError> {
    if points < 2 {
        return Err(CliError("--points must be at least 2".into()));
    }
    let sol = meanfield::solve(model, m0, t_end, &OdeOptions::default())?;
    let mut out = String::from("t");
    for name in model.state_names() {
        write!(out, ",{name}").expect("write to string");
    }
    out.push('\n');
    for i in 0..points {
        let t = t_end * i as f64 / (points - 1) as f64;
        let m = sol.occupancy_at(t);
        write!(out, "{t:.6}").expect("write to string");
        for v in m.as_slice() {
            write!(out, ",{v:.9}").expect("write to string");
        }
        out.push('\n');
    }
    Ok(out)
}

/// `mfcsl fixed-points <model>`.
///
/// # Errors
///
/// Propagates search failures as [`CliError`].
pub fn fixed_points(model: &LocalModel) -> Result<String, CliError> {
    let fps = fixedpoint::find_all(model, 16, 20_260_705, &FixedPointOptions::default())?;
    if fps.is_empty() {
        return Ok("no fixed points found from the search battery".into());
    }
    let mut out = String::new();
    for fp in fps {
        writeln!(
            out,
            "m̃ = {}  {:?} (spectral abscissa {:+.6}, residual {:.2e})",
            fp.occupancy, fp.stability, fp.spectral_abscissa, fp.residual
        )
        .expect("write to string");
    }
    Ok(out)
}

/// `mfcsl serve <models>… [--addr A] [--workers N] [--queue N]
/// [--threads N] [--max-sessions N] [--loops N] [--state-dir D]
/// [--allow-sleep] [--allow-faults]` — runs the `mfcsld` daemon.
///
/// Prints a `mfcsld listening on <addr> …` line (flushed before the accept
/// loop starts, so scripts can parse the ephemeral port), then blocks until
/// a `POST /shutdown` drains the queue.
///
/// # Errors
///
/// Registry and bind failures become [`CliError`].
pub fn serve(flags: crate::args::ServeFlags) -> Result<String, CliError> {
    use std::io::Write as _;
    let registry =
        mfcsl_serve::ModelRegistry::load(&flags.paths).map_err(|e| CliError(e.to_string()))?;
    let n_models = registry.len();
    let config = mfcsl_serve::ServerConfig {
        addr: flags.addr,
        workers: flags.workers,
        queue_capacity: flags.queue,
        threads: flags.threads,
        max_sessions: flags.max_sessions,
        allow_sleep: flags.allow_sleep,
        allow_faults: flags.allow_faults,
        event_loops: flags.event_loops,
        state_dir: flags.state_dir,
    };
    let (workers, queue, loops) = (config.workers, config.queue_capacity, config.event_loops);
    let server = mfcsl_serve::Server::bind(registry, config)
        .map_err(|e| CliError(format!("cannot bind: {e}")))?;
    println!(
        "mfcsld listening on {} ({n_models} models, {workers} workers, queue {queue}, epoll x{loops} core)",
        server.local_addr()
    );
    std::io::stdout().flush().expect("flush stdout");
    server
        .run()
        .map_err(|e| CliError(format!("daemon failed: {e}")))?;
    Ok("mfcsld stopped\n".into())
}

/// `mfcsl client <addr> check <model> --m0 … [--fast] [--timeout-ms T]
/// [--param k=v]… "<formula>"…` — posts one batch to a running daemon.
///
/// Output lines are rendered through [`verdict_line`] from the daemon's
/// echoed (parsed-and-rendered) occupancy and formulas, so they are
/// bitwise identical to `mfcsl check` run offline against the same model.
///
/// # Errors
///
/// Transport failures and non-200 statuses become [`CliError`].
pub fn client_check(
    addr: &str,
    model: &str,
    flags: &crate::args::ClientCheckFlags,
) -> Result<String, CliError> {
    let request = mfcsl_serve::CheckRequest {
        model: model.to_string(),
        m0: flags.m0.clone(),
        formulas: flags.formulas.clone(),
        fast: flags.fast,
        params: flags.params.clone(),
        timeout_ms: flags.timeout_ms,
        sleep_ms: None,
        fault: None,
        mode: flags.simulate.then(|| "simulate".to_string()),
        population: flags.population,
        replications: flags.replications,
        seed: flags.seed,
    };
    let outcome = mfcsl_serve::client::post_check_with_retry(addr, &request, flags.retry)
        .map_err(|e| CliError(e.to_string()))?;
    let mut out = String::new();
    for v in &outcome.verdicts {
        out.push_str(&verdict_line(
            &outcome.m0,
            &v.formula,
            v.holds,
            v.marginal,
            flags.fast,
        ));
        out.push('\n');
    }
    Ok(out)
}

/// `mfcsl client <addr> <health|metrics|models|shutdown>` — the daemon's
/// maintenance endpoints.
///
/// # Errors
///
/// Transport failures and non-200 statuses become [`CliError`].
pub fn client_control(addr: &str, action: &str) -> Result<String, CliError> {
    let map = |e: mfcsl_serve::ClientError| CliError(e.to_string());
    match action {
        "health" => mfcsl_serve::client::get_text(addr, "/healthz").map_err(map),
        "metrics" => mfcsl_serve::client::get_text(addr, "/metrics").map_err(map),
        "models" => mfcsl_serve::client::get_text(addr, "/v1/models").map_err(map),
        "shutdown" => {
            mfcsl_serve::client::shutdown(addr).map_err(map)?;
            Ok("draining\n".into())
        }
        other => Err(CliError(format!(
            "unknown client action `{other}` (expected check, health, metrics, models or shutdown)"
        ))),
    }
}

/// `mfcsl vectors <spec.json> --out <dir>` — regenerates the golden
/// conformance-vector suite.
///
/// The spec (`schema: "mfcsl-vectors-spec-v1"`) lists suites of
/// `(model, formulas, m0, tolerance)` plus the simulation parameters; for
/// each suite this emits `<out>/<name>.json` (`schema:
/// "mfcsl-vectors-v1"`) containing the mean-field verdicts, an FNV-1a
/// digest of the mean-field occupancy curve on a fixed grid, the
/// finite-N statistical verdicts with their confidence intervals, and an
/// FNV-1a digest over the estimate bits. verify.sh regenerates the suite
/// and byte-compares it against the committed `vectors/` directory, so
/// any refactor that changes a solver or sampler bit fails the gate.
///
/// # Errors
///
/// Returns [`CliError`] for unreadable specs, malformed suites, and
/// engine failures.
pub fn vectors(spec_path: &std::path::Path, out_dir: &std::path::Path) -> Result<String, CliError> {
    use mfcsl_serve::snapshot::fnv1a64;
    use mfcsl_serve::Json;

    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| CliError(format!("cannot read spec {}: {e}", spec_path.display())))?;
    let spec = Json::parse(&text).map_err(|e| CliError(format!("bad spec: {e}")))?;
    if spec.get("schema").and_then(Json::as_str) != Some("mfcsl-vectors-spec-v1") {
        return Err(CliError(
            "spec schema must be \"mfcsl-vectors-spec-v1\"".into(),
        ));
    }
    let base = spec_path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| std::path::Path::new("."));
    let suites = spec
        .get("suites")
        .and_then(Json::as_arr)
        .ok_or_else(|| CliError("spec needs a `suites` array".into()))?;
    std::fs::create_dir_all(out_dir)
        .map_err(|e| CliError(format!("cannot create {}: {e}", out_dir.display())))?;

    let field_str = |suite: &Json, key: &str| -> Result<String, CliError> {
        suite
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| CliError(format!("suite needs a string field `{key}`")))
    };
    let field_count = |suite: &Json, key: &str| -> Result<usize, CliError> {
        let v = suite
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| CliError(format!("suite needs a numeric field `{key}`")))?;
        if !(v.is_finite() && v >= 1.0 && v.fract() == 0.0 && v <= 9.0e15) {
            return Err(CliError(format!(
                "suite field `{key}` must be a positive integer"
            )));
        }
        Ok(v as usize)
    };

    let mut report = String::new();
    for suite in suites {
        let name = field_str(suite, "name")?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(CliError(format!(
                "suite name `{name}` must be non-empty [A-Za-z0-9_-]"
            )));
        }
        let model_rel = field_str(suite, "model")?;
        let tolerance = field_str(suite, "tolerance")?;
        let fast = match tolerance.as_str() {
            "default" => false,
            "fast" => true,
            other => {
                return Err(CliError(format!(
                    "suite tolerance must be `default` or `fast`, got `{other}`"
                )))
            }
        };
        let file = crate::model_file::ModelFile::load(&base.join(&model_rel))?;
        let model = file.instantiate()?;
        let m0_vals: Vec<f64> = suite
            .get("m0")
            .and_then(Json::as_arr)
            .ok_or_else(|| CliError("suite needs an `m0` array".into()))?
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| CliError("m0 entries must be numbers".into()))
            })
            .collect::<Result<_, _>>()?;
        let m0 = Occupancy::new(m0_vals.clone())?;
        let population = field_count(suite, "population")?;
        let replications = field_count(suite, "replications")?;
        let seed = field_count(suite, "seed")? as u64;
        let points = field_count(suite, "points")?.max(2);
        let horizon = suite
            .get("horizon")
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| CliError("suite needs a positive `horizon`".into()))?;
        let formula_texts: Vec<String> = suite
            .get("formulas")
            .and_then(Json::as_arr)
            .ok_or_else(|| CliError("suite needs a `formulas` array".into()))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| CliError("formulas must be strings".into()))
            })
            .collect::<Result<_, _>>()?;
        let psis = parse_formulas(&formula_texts)?;

        // Mean-field lane: verdicts plus a bit-exact digest of the
        // occupancy curve on the fixed grid.
        let mf_session = session(&model, fast);
        let mf_verdicts = mf_session.check_all(&psis, &m0)?;
        let traj = meanfield::solve(&model, &m0, horizon, &OdeOptions::default())?;
        let mut curve_bytes = Vec::with_capacity(points * model.n_states() * 8);
        for i in 0..points {
            let t = horizon * i as f64 / (points - 1) as f64;
            for v in traj.occupancy_at(t).as_slice() {
                curve_bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        let curve_digest = fnv1a64(&curve_bytes);

        // Statistical lane: finite-N verdicts with interval digests. Two
        // threads exercises the sharding-invariance the digests pin.
        let mut options = mfcsl_smc::SmcOptions::new(population);
        options.replications = replications;
        options.seed = seed;
        options.threads = 2;
        let smc = mfcsl_smc::SmcSession::new(&model, options)?;
        let sim_verdicts = smc.check_all(&psis, &m0)?;

        let mut entries = Vec::new();
        for ((text, mf), sim) in formula_texts.iter().zip(&mf_verdicts).zip(&sim_verdicts) {
            let mut est_bytes = Vec::with_capacity(sim.operators.len() * 24);
            let mut estimates = Vec::new();
            for op in &sim.operators {
                for v in [op.estimate.mean, op.estimate.lo, op.estimate.hi] {
                    est_bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                estimates.push(Json::Obj(vec![
                    ("operator".into(), Json::Str(op.operator.clone())),
                    ("mean".into(), Json::Num(op.estimate.mean)),
                    ("lo".into(), Json::Num(op.estimate.lo)),
                    ("hi".into(), Json::Num(op.estimate.hi)),
                    ("n".into(), Json::Num(op.estimate.n as f64)),
                ]));
            }
            entries.push(Json::Obj(vec![
                ("formula".into(), Json::Str(text.clone())),
                (
                    "meanfield".into(),
                    Json::Obj(vec![
                        ("holds".into(), Json::Bool(mf.holds())),
                        ("marginal".into(), Json::Bool(mf.is_marginal())),
                    ]),
                ),
                (
                    "simulate".into(),
                    Json::Obj(vec![
                        ("holds".into(), Json::Bool(sim.holds)),
                        ("marginal".into(), Json::Bool(sim.marginal)),
                        ("replications".into(), Json::Num(sim.replications as f64)),
                        ("estimates".into(), Json::Arr(estimates)),
                        (
                            "estimates_fnv1a".into(),
                            Json::Str(format!("0x{:016x}", fnv1a64(&est_bytes))),
                        ),
                    ]),
                ),
            ]));
        }

        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("mfcsl-vectors-v1".into())),
            ("name".into(), Json::Str(name.clone())),
            ("model".into(), Json::Str(model_rel.clone())),
            ("tolerance".into(), Json::Str(tolerance.clone())),
            (
                "m0".into(),
                Json::Arr(m0_vals.into_iter().map(Json::Num).collect()),
            ),
            ("population".into(), Json::Num(population as f64)),
            ("seed".into(), Json::Num(seed as f64)),
            ("horizon".into(), Json::Num(horizon)),
            ("points".into(), Json::Num(points as f64)),
            (
                "curve_fnv1a".into(),
                Json::Str(format!("0x{curve_digest:016x}")),
            ),
            ("entries".into(), Json::Arr(entries)),
        ]);
        let path = out_dir.join(format!("{name}.json"));
        std::fs::write(&path, doc.render() + "\n")
            .map_err(|e| CliError(format!("cannot write {}: {e}", path.display())))?;
        writeln!(report, "wrote {} ({} entries)", path.display(), psis.len())
            .expect("write to string");
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_file::ModelFile;

    const SIS: &str = "\
state s : healthy
state i : infected
param beta = 2
param gamma = 1
rate s -> i : beta * m[i]
rate i -> s : gamma
";

    fn sis() -> (LocalModel, std::collections::BTreeMap<String, f64>) {
        let file = ModelFile::parse(SIS).unwrap();
        let params = file.params().clone();
        (file.instantiate().unwrap(), params)
    }

    #[test]
    fn parse_occupancy_roundtrip() {
        let m = parse_occupancy("0.8, 0.15 ,0.05").unwrap();
        assert_eq!(m.len(), 3);
        assert!((m[1] - 0.15).abs() < 1e-12);
        assert!(parse_occupancy("0.5,0.6").is_err());
        assert!(parse_occupancy("a,b").is_err());
    }

    #[test]
    fn info_lists_everything() {
        let (model, params) = sis();
        let text = info(&model, &params).unwrap();
        assert!(text.contains("states (2):"));
        assert!(text.contains("beta = 2"));
        assert!(text.contains("healthy"));
    }

    fn one(f: &str) -> Vec<String> {
        vec![f.to_string()]
    }

    #[test]
    fn check_and_fast_agree() {
        let (model, _) = sis();
        let m0 = parse_occupancy("0.9,0.1").unwrap();
        let a = check(&model, &m0, &one("E{<0.2}[ infected ]"), false, false, None).unwrap();
        let b = check(&model, &m0, &one("E{<0.2}[ infected ]"), true, false, None).unwrap();
        assert!(a.contains('⊨'));
        assert!(b.contains('⊨'));
        assert!(b.contains("fast tolerances"));
        let c = check(&model, &m0, &one("E{>0.2}[ infected ]"), false, false, None).unwrap();
        assert!(c.contains('⊭'));
    }

    #[test]
    fn check_batch_shares_one_session() {
        let (model, _) = sis();
        let m0 = parse_occupancy("0.9,0.1").unwrap();
        let formulas = vec![
            "E{<0.2}[ infected ]".to_string(),
            "EP{>0}[ tt U[0,2] infected ]".to_string(),
            "EP{>0}[ tt U[0,2] infected ]".to_string(),
        ];
        // One thread: the repeated formula deterministically hits the
        // curve cache warmed by its first occurrence.
        let out = check(&model, &m0, &formulas, false, true, Some(1)).unwrap();
        assert_eq!(out.matches('⊨').count(), 3, "{out}");
        assert!(out.contains("engine statistics:"), "{out}");
        assert!(out.contains("trajectories: 1 solved, 0 extended"), "{out}");
        // The repeated formula hits the curve cache.
        assert!(out.contains("prob curves: 1 hits, 1 misses"), "{out}");
        assert!(out.contains("pool: 1 threads"), "{out}");
    }

    #[test]
    fn check_parallel_verdicts_match_serial() {
        let (model, _) = sis();
        let m0 = parse_occupancy("0.9,0.1").unwrap();
        let formulas = vec![
            "E{<0.2}[ infected ]".to_string(),
            "EP{>0}[ tt U[0,2] infected ]".to_string(),
            "EP{>0}[ tt U[0,5] infected ]".to_string(),
            "ES{>0.45}[ infected ]".to_string(),
        ];
        let serial = check(&model, &m0, &formulas, false, false, Some(1)).unwrap();
        for threads in [2, 8] {
            let parallel = check(&model, &m0, &formulas, false, false, Some(threads)).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn csat_reports_interval() {
        let (model, _) = sis();
        let m0 = parse_occupancy("0.9,0.1").unwrap();
        let m0s = std::slice::from_ref(&m0);
        let text = csat(
            &model,
            m0s,
            10.0,
            &one("E{<0.3}[ infected ]"),
            false,
            None,
            false,
        )
        .unwrap();
        assert!(text.contains("cSat"));
        assert!(text.contains("measure"));
        let text = csat(
            &model,
            m0s,
            10.0,
            &one("E{<0.3}[ infected ]"),
            true,
            None,
            false,
        )
        .unwrap();
        assert!(text.contains("engine statistics:"), "{text}");
    }

    #[test]
    fn csat_sweeps_several_occupancies() {
        let (model, _) = sis();
        let m0s = vec![
            parse_occupancy("0.9,0.1").unwrap(),
            parse_occupancy("0.5,0.5").unwrap(),
            parse_occupancy("0.2,0.8").unwrap(),
        ];
        let psi = one("E{<0.3}[ infected ]");
        let serial = csat(&model, &m0s, 10.0, &psi, false, Some(1), false).unwrap();
        assert_eq!(serial.matches("cSat").count(), 3, "{serial}");
        let parallel = csat(&model, &m0s, 10.0, &psi, false, Some(8), false).unwrap();
        assert_eq!(serial, parallel);
        // The shared-controller prewarm still answers every lane.
        let shared = csat(&model, &m0s, 10.0, &psi, false, Some(1), true).unwrap();
        assert_eq!(shared.matches("cSat").count(), 3, "{shared}");
    }

    #[test]
    fn csat_sweep_stats_show_batched_lanes() {
        let (model, _) = sis();
        let m0s = vec![
            parse_occupancy("0.9,0.1").unwrap(),
            parse_occupancy("0.5,0.5").unwrap(),
            parse_occupancy("0.2,0.8").unwrap(),
        ];
        let psi = one("E{<0.3}[ infected ]");
        let text = csat(&model, &m0s, 10.0, &psi, true, Some(1), false).unwrap();
        assert!(
            text.contains("batch prewarm: 3 lanes solved by one batched drive"),
            "{text}"
        );
        // Per-solve lines carry the lane each trajectory rode and the
        // accept/reject split of its controller.
        for lane in 0..3 {
            assert!(text.contains(&format!(", batch lane {lane}")), "{text}");
        }
        assert!(text.contains("rejected)"), "{text}");
        // A single-occupancy csat takes the scalar path: no batch lines.
        let solo = csat(
            &model,
            std::slice::from_ref(&m0s[0]),
            10.0,
            &psi,
            true,
            Some(1),
            false,
        )
        .unwrap();
        assert!(!solo.contains("batch prewarm"), "{solo}");
        assert!(!solo.contains("batch lane"), "{solo}");
    }

    #[test]
    fn trajectory_emits_csv() {
        let (model, _) = sis();
        let m0 = parse_occupancy("0.9,0.1").unwrap();
        let text = trajectory(&model, &m0, 5.0, 6).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "t,s,i");
        assert_eq!(lines.len(), 7);
        assert!(trajectory(&model, &m0, 5.0, 1).is_err());
    }

    #[test]
    fn fixed_points_reports_both_sis_points() {
        let (model, _) = sis();
        let text = fixed_points(&model).unwrap();
        assert!(text.contains("Stable"), "{text}");
        assert!(text.lines().count() >= 2, "{text}");
    }

    #[test]
    fn simulate_prints_interval_lines_and_is_thread_invariant() {
        let (model, _) = sis();
        let m0 = parse_occupancy("0.9,0.1").unwrap();
        let run = |threads: &str| {
            let argv: Vec<String> = [
                "--m0",
                "0.9,0.1",
                "--population",
                "100",
                "--reps",
                "80",
                "--seed",
                "42",
                "--threads",
                threads,
                "--stats",
                "EP{>0.1}[ tt U[0,2] infected ]",
            ]
            .iter()
            .map(ToString::to_string)
            .collect();
            let flags = crate::args::parse_common(&argv).unwrap();
            simulate(&model, &m0, flags.formulas().unwrap(), &flags).unwrap()
        };
        let a = run("1");
        assert!(a.contains("replications, N = 100, 95% CI"), "{a}");
        assert!(a.contains("smc statistics: 80 replications run"), "{a}");
        // Same seed, different thread count: bitwise-identical report.
        assert_eq!(a, run("8"));

        let flags = crate::args::parse_common(&["--m0".into(), "0.9,0.1".into()]).unwrap();
        let err = simulate(&model, &m0, &one("E{<0.5}[ infected ]"), &flags).unwrap_err();
        assert!(err.to_string().contains("--population"), "{err}");
    }

    #[test]
    fn vectors_regenerate_byte_identically() {
        let base = std::env::temp_dir().join(format!("mfcsl-vectors-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        std::fs::write(base.join("sis.mf"), SIS).unwrap();
        let spec = r#"{
  "schema": "mfcsl-vectors-spec-v1",
  "suites": [
    {
      "name": "sis-smoke",
      "model": "sis.mf",
      "m0": [0.9, 0.1],
      "tolerance": "default",
      "population": 50,
      "replications": 40,
      "seed": 7,
      "horizon": 2.0,
      "points": 9,
      "formulas": ["E{<0.5}[ infected ]", "EP{>0.1}[ tt U[0,2] infected ]"]
    }
  ]
}"#;
        std::fs::write(base.join("spec.json"), spec).unwrap();
        let out_a = base.join("a");
        let out_b = base.join("b");
        let report = vectors(&base.join("spec.json"), &out_a).unwrap();
        assert!(report.contains("sis-smoke.json"), "{report}");
        vectors(&base.join("spec.json"), &out_b).unwrap();
        let a = std::fs::read(out_a.join("sis-smoke.json")).unwrap();
        let b = std::fs::read(out_b.join("sis-smoke.json")).unwrap();
        assert_eq!(a, b, "vector regeneration must be byte-identical");
        let text = String::from_utf8(a).unwrap();
        assert!(text.contains("\"schema\":\"mfcsl-vectors-v1\""), "{text}");
        assert!(text.contains("\"curve_fnv1a\":\"0x"), "{text}");
        assert!(text.contains("\"estimates_fnv1a\":\"0x"), "{text}");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn errors_are_messages() {
        let (model, _) = sis();
        let m0 = parse_occupancy("0.9,0.1").unwrap();
        let err = check(&model, &m0, &one("E{>2}[ infected ]"), false, false, None).unwrap_err();
        assert!(err.to_string().contains("[0, 1]"));
        let err = check(&model, &m0, &one("E{>0.5}[ ghost ]"), false, false, None).unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }
}
