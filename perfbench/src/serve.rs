//! `serve_hot` and `serve_mixed`: the `mfcsl serve` daemon over loopback.
//!
//! Every request carries the 3-formula virus batch. An untraced run
//! starts ten daemons in turn; each is set up (spawn, tenant sessions,
//! hot-key warm-up), then serves its share of the seeded stream in closed
//! loop: to one keep-alive client (`serve_hot`), or to `nproc` of them
//! (`serve_mixed`). Latency and throughput are the best daemon's, set-up
//! time and peak heap the median over daemons.
//! Every response is compared with an offline `CheckSession` reference
//! for its key.
//!
//! The daemon itself carries no spans. The traced run times a
//! single-connection closed loop on one daemon, reading the engine's
//! counters as `/metrics` deltas; drives the same daemon in open loop at
//! the workload's reference rate, timing each request from its due time;
//! then replays the single connection's requests in process through the
//! public functions the daemon's handler calls, one span each.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use mfcsl_core::mfcsl::{parse_formula, CheckSession, MfFormula, Verdict};
use mfcsl_core::Occupancy;
use mfcsl_csl::Tolerances;
use mfcsl_modelfile::model_file::ModelFile;
use mfcsl_pool::ThreadPool;
use mfcsl_serve::http::{self, Outcome as HttpOutcome, RequestParser};
use mfcsl_serve::{Json, ModelRegistry, SessionKey, SessionStore};

use crate::daemon::Daemon;
use crate::inputs::{fnv1a, serve_inputs, Item, Mix, Rng, ServeInputs};
use crate::loadgen::{self, Phase, LATE_LIMIT};
use crate::report::Outcome;
use crate::trace::{self, Tracer};
use crate::{stats, RunArgs};

pub const FORMULAS: [&str; 3] = [
    "EP{<0.3}[ not_infected U[0,1] infected ]",
    "E{<0.3}[ infected ]",
    "ES{>0.1}[ infected ]",
];

struct Spec {
    /// The daemon's `--max-sessions`.
    max_sessions: usize,
    /// Closed-loop clients: one (latency of a lone client) or `nproc`
    /// (the daemon's capacity, with requests contending for its workers
    /// and its session store).
    concurrent: bool,
    /// Open-loop rate of the latency phase, requests per second.
    rate: f64,
    /// Closed-loop throughput on the reference host, used to size the
    /// fixed request count of the closed-loop phase.
    closed_rps: f64,
    mix: Mix,
}

const HOT: Spec = Spec {
    max_sessions: 64,
    concurrent: false,
    rate: 10_000.0,
    closed_rps: 30_000.0,
    mix: Mix {
        tenant_per_20: 0,
        unique_per_20: 0,
        tenants: 0,
        scrape_every: 0,
    },
};

const MIXED: Spec = Spec {
    max_sessions: 16,
    concurrent: true,
    rate: 2_000.0,
    closed_rps: 13_000.0,
    mix: Mix {
        tenant_per_20: 4,
        unique_per_20: 1,
        tenants: 48,
        scrape_every: 250,
    },
};

/// Fresh daemons per untraced run, each serving an equal share of the
/// requests with the same mix. A busy host only ever slows a daemon, and
/// it does so in stretches that cover several daemons in a row (its p50
/// then rises by half), so the time metrics are the best daemon's. A
/// daemon's throughput covers its whole share: it falls as the daemon's
/// history grows, so parts of one share do not compare.
const ROUNDS: usize = 10;
/// Share of the run's seconds spent in the closed-loop phase.
const CLOSED_SHARE: f64 = 0.6;
/// Share of a traced run's seconds spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.3;
/// Warm-up requests on the hot key, per set-up.
const WARMUP: usize = 1_000;
/// Requests of the traced run's single-connection phase and replay.
const SINGLE_MAX: usize = 4_000;

/// The daemon's verdict rendering (`handle_check`), so a reference
/// digest covers exactly the bytes the daemon sends before `"warm"`.
fn render_verdicts(psis: &[MfFormula], verdicts: &[Verdict]) -> Json {
    Json::Arr(
        psis.iter()
            .zip(verdicts)
            .map(|(psi, v)| {
                let mut fields = vec![
                    ("formula".into(), Json::Str(psi.to_string())),
                    ("holds".into(), Json::Bool(v.holds())),
                    ("marginal".into(), Json::Bool(v.is_marginal())),
                ];
                if let Some(r) = v.refinement() {
                    fields.push((
                        "refinement".into(),
                        Json::Obj(vec![
                            ("rounds".into(), Json::Num(f64::from(r.rounds))),
                            ("final_margin".into(), Json::Num(r.final_margin)),
                            ("decided".into(), Json::Bool(r.decided)),
                        ]),
                    ));
                }
                Json::Obj(fields)
            })
            .collect(),
    )
}

fn response_head(m0: &Occupancy, verdicts: Json) -> Json {
    Json::Obj(vec![
        ("model".into(), Json::from("virus")),
        ("m0".into(), Json::Str(m0.to_string())),
        ("fast".into(), Json::Bool(false)),
        ("verdicts".into(), verdicts),
    ])
}

/// Digest of the response the daemon must send for one key, computed on
/// a fresh pool-less `CheckSession` over the same model file.
fn reference(
    file: &ModelFile,
    psis: &[MfFormula],
    key: &(Option<f64>, [f64; 3]),
) -> Result<u64, String> {
    let overrides: BTreeMap<String, f64> =
        key.0.map(|k2| ("k2".to_string(), k2)).into_iter().collect();
    let model = file
        .instantiate_with(&overrides)
        .map_err(|e| e.to_string())?;
    let m0 = Occupancy::new(key.1.to_vec()).map_err(|e| e.to_string())?;
    let session = CheckSession::with_tolerances(&model, Tolerances::default());
    let verdicts = session.check_all(psis, &m0).map_err(|e| e.to_string())?;
    let body = response_head(&m0, render_verdicts(psis, &verdicts)).render();
    Ok(fnv1a(&body.as_bytes()[..body.len() - 1]))
}

/// References for the keys the stream uses, split over `threads`
/// threads; `None` for keys it does not use.
///
/// `--corrupt-reference` flips the hot key's digest.
fn references(args: &RunArgs, wire: &Wire, stream: &[Item]) -> Result<Vec<Option<u64>>, String> {
    let threads = args.nproc;
    let registry =
        ModelRegistry::load(std::slice::from_ref(&args.models)).map_err(|e| e.to_string())?;
    let file = registry.get("virus").ok_or("no virus model")?;
    let psis: Vec<MfFormula> = FORMULAS
        .iter()
        .map(|f| parse_formula(f))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let (psis, keys) = (&psis, &wire.keys);
    let wanted: BTreeSet<usize> = stream.iter().filter_map(|i| wire.key_of(*i)).collect();
    let wanted: Vec<usize> = wanted.into_iter().collect();
    let parts: Vec<Result<Vec<(usize, u64)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|j| {
                let wanted = &wanted;
                s.spawn(move || {
                    wanted
                        .iter()
                        .skip(j)
                        .step_by(threads)
                        .map(|&k| Ok((k, reference(file, psis, &keys[k])?)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("reference thread panicked".into()))
            })
            .collect()
    });
    let mut out = vec![None; keys.len()];
    for part in parts {
        for (k, digest) in part? {
            out[k] = Some(digest);
        }
    }
    if args.corrupt_reference {
        out[0] = out[0].map(|d| d ^ 1);
    }
    Ok(out)
}

/// A serve workload's session keys and their request bytes. Key 0 is the
/// hot key, then the tenants, then the unique keys.
struct Wire {
    /// `(k2 override, m0)` of every key.
    keys: Vec<(Option<f64>, [f64; 3])>,
    checks: Vec<Vec<u8>>,
    scrape: Vec<u8>,
    tenants: usize,
}

impl Wire {
    fn new(inputs: &ServeInputs) -> Wire {
        let keys: Vec<_> = std::iter::once((None, inputs.hot_m0))
            .chain(inputs.tenants.iter().map(|(k2, m0)| (Some(*k2), *m0)))
            .chain(inputs.uniques.iter().map(|(k2, m0)| (Some(*k2), *m0)))
            .collect();
        Wire {
            checks: keys
                .iter()
                .map(|(k2, m0)| loadgen::check_request(m0, &FORMULAS, *k2))
                .collect(),
            keys,
            scrape: loadgen::http_request("GET", "/metrics", b""),
            tenants: inputs.tenants.len(),
        }
    }

    /// The session key a request goes to; `None` for a scrape.
    fn key_of(&self, item: Item) -> Option<usize> {
        match item {
            Item::Hot => Some(0),
            Item::Tenant(t) => Some(1 + t as usize),
            Item::Unique(u) => Some(1 + self.tenants + u as usize),
            Item::Scrape => None,
        }
    }

    fn bytes(&self, item: Item) -> &[u8] {
        match self.key_of(item) {
            Some(k) => &self.checks[k],
            None => &self.scrape,
        }
    }

    fn requests(&self, items: &[Item]) -> Vec<&[u8]> {
        items.iter().map(|i| self.bytes(*i)).collect()
    }
}

/// Spawns the daemon, builds every tenant session once and warms the hot
/// key, over one connection so the sessions enter the daemon's LRU in the
/// same order every time; returns the daemon with the set-up time.
fn start_daemon(args: &RunArgs, spec: &Spec, wire: &Wire) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let sessions = spec.max_sessions.to_string();
    let daemon = Daemon::spawn(
        &args.models,
        &["--workers", "2", "--max-sessions", &sessions],
    )?;
    let tenants = &wire.checks[1..=spec.mix.tenants];
    let warm: Vec<&[u8]> = tenants
        .iter()
        .map(Vec::as_slice)
        .chain(std::iter::repeat_n(wire.checks[0].as_slice(), WARMUP))
        .collect();
    let phase = loadgen::drive(&daemon.addr, &warm, None, 1).map_err(|e| e.to_string())?;
    if phase.samples.iter().any(|s| s.status != 200) {
        return Err("warm-up request failed".into());
    }
    Ok((daemon, t.elapsed().as_secs_f64()))
}

/// Checks every sample against its key's reference; returns the check
/// latencies in µs (scrapes excluded) and the scrape latencies.
fn verify(
    out: &mut Outcome,
    phase: &Phase,
    items: &[Item],
    wire: &Wire,
    refs: &[Option<u64>],
) -> (Vec<f64>, Vec<f64>) {
    let mut checks = Vec::with_capacity(phase.samples.len());
    let mut scrapes = Vec::new();
    for s in &phase.samples {
        out.attempted += 1;
        let item = items[s.index as usize];
        let us = s.latency_ns as f64 / 1e3;
        match wire.key_of(item) {
            None => scrapes.push(us),
            Some(k) => {
                checks.push(us);
                if s.status == 200 && Some(s.digest) != refs[k] {
                    out.mismatch(format!(
                        "request {} (key {k}): response differs from the reference",
                        s.index
                    ));
                    continue;
                }
            }
        }
        if s.status != 200 {
            out.failed += 1;
        }
    }
    (checks, scrapes)
}

/// Splits the stream after its first `n` checks.
fn split_after(stream: &[Item], n: usize) -> (&[Item], &[Item]) {
    let split = stream
        .iter()
        .enumerate()
        .filter(|(_, item)| **item != Item::Scrape)
        .nth(n)
        .map_or(stream.len(), |(i, _)| i);
    stream.split_at(split)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let spec = if args.workload == "serve_mixed" {
        &MIXED
    } else {
        &HOT
    };
    let (closed_n, open_n, single_n) = if args.trace {
        let open_n = (spec.rate * args.seconds * OPEN_SHARE) as usize;
        (0, open_n, open_n.min(SINGLE_MAX))
    } else {
        (
            (spec.closed_rps * args.seconds * CLOSED_SHARE) as usize,
            0,
            0,
        )
    };
    let mut rng = Rng::for_workload(args.seed, args.workload);
    let inputs = serve_inputs(&mut rng, closed_n + open_n + single_n, spec.mix);
    let wire = Wire::new(&inputs);
    if args.trace {
        return traced(args, spec, &inputs.stream, &wire, open_n);
    }

    // Untraced: each of ROUNDS fresh daemons serves the next share of the
    // stream in closed loop.
    let clients = if spec.concurrent { args.nproc } else { 1 };
    let share = inputs.stream.len().div_ceil(ROUNDS);
    let mut setup_s = Vec::new();
    let mut heap = Vec::new();
    let mut throughput = Vec::new();
    let mut phases: Vec<(Phase, &[Item])> = Vec::new();
    for items in inputs.stream.chunks(share) {
        let (daemon, s) = start_daemon(args, spec, &wire)?;
        setup_s.push(s);
        let phase = loadgen::drive(&daemon.addr, &wire.requests(items), None, clients)
            .map_err(|e| e.to_string())?;
        throughput.push(items.len() as f64 / phase.wall.as_secs_f64());
        phases.push((phase, items));
        heap.push(daemon.shutdown()? as f64 / (1024.0 * 1024.0));
    }
    let refs = references(args, &wire, &inputs.stream)?;
    let mut out = Outcome::new();
    let (mut p50, mut p90) = (Vec::new(), Vec::new());
    for (phase, items) in &phases {
        let latencies = verify(&mut out, phase, items, &wire, &refs).0;
        p50.push(stats::quantile(&latencies, 0.5));
        p90.push(stats::quantile(&latencies, 0.9));
    }
    out.note(format!(
        "{}: {ROUNDS} daemons, {} requests closed loop from {clients} client(s), {} keys; throughput {:?} rps; p50 {:?} us; p90 {:?} us; peak heap {:?} MB",
        args.workload,
        inputs.stream.len(),
        wire.keys.len(),
        throughput.iter().map(|t| t.round()).collect::<Vec<_>>(),
        p50.iter().map(|t| (t * 10.0).round() / 10.0).collect::<Vec<_>>(),
        p90.iter().map(|t| t.round()).collect::<Vec<_>>(),
        heap.iter().map(|m| (m * 100.0).round() / 100.0).collect::<Vec<_>>()
    ));
    out.set("setup_s", stats::median(&setup_s));
    out.set("p50_us", stats::least(&p50));
    out.set("p90_us", stats::least(&p90));
    out.set("ops_per_s", stats::greatest(&throughput));
    out.set("peak_mem_mb", stats::median(&heap));
    Ok(out)
}

/// The traced run: a single-connection closed loop with the daemon's
/// counters, an open-loop phase at the reference rate, then the in-process
/// replay of the single connection's requests with spans.
fn traced(
    args: &RunArgs,
    spec: &Spec,
    stream: &[Item],
    wire: &Wire,
    open_n: usize,
) -> Result<Outcome, String> {
    let (open_items, single_items) = split_after(stream, open_n);
    let (mut daemon, _) = start_daemon(args, spec, wire)?;
    // The single connection first: its requests reach the session store in
    // stream order, so the engine counters repeat exactly at a seed.
    let before = daemon.metrics()?;
    let single = loadgen::drive(&daemon.addr, &wire.requests(single_items), None, 1)
        .map_err(|e| e.to_string())?;
    let between = daemon.metrics()?;
    let rss0 = daemon.rss()?;
    let open = loadgen::drive(
        &daemon.addr,
        &wire.requests(open_items),
        Some(spec.rate),
        args.nproc,
    )
    .map_err(|e| e.to_string())?;
    let rss1 = daemon.rss()?;
    let after = daemon.metrics()?;
    daemon.shutdown()?;

    let refs = references(args, wire, stream)?;
    let mut out = Outcome::new();
    let (latencies, scrapes) = verify(&mut out, &open, open_items, wire, &refs);
    let (single, _) = verify(&mut out, &single, single_items, wire, &refs);
    let late: Vec<f64> = open
        .samples
        .iter()
        .map(|s| s.late_ns as f64 / 1e3)
        .collect();
    let on_time = open
        .samples
        .iter()
        .filter(|s| s.late_ns <= LATE_LIMIT.as_nanos() as u64)
        .count();
    out.note(format!(
        "{}: open loop {} requests at {} rps, {:.2}% sent within {} ms of due; single connection {} requests",
        args.workload,
        open_items.len(),
        spec.rate,
        100.0 * on_time as f64 / late.len() as f64,
        LATE_LIMIT.as_millis(),
        single.len()
    ));

    // Daemon counters: connections, rejections and RSS over the open-loop
    // phase; the engine's and the session store's, per check request, over
    // the single connection.
    let delta = |from: &BTreeMap<String, f64>, to: &BTreeMap<String, f64>, name: &str| {
        to.get(name).copied().unwrap_or(0.0) - from.get(name).copied().unwrap_or(0.0)
    };
    let open_delta = |name: &str| delta(&between, &after, name);
    let single_delta = |name: &str| delta(&before, &between, name);
    let n = single.len() as f64;
    let warm = single_delta("mfcsld_session_warm_hits_total");
    let cold = single_delta("mfcsld_session_cold_starts_total");
    out.set("loadgen.late_p50_us", stats::quantile(&late, 0.5));
    out.set("loadgen.late_p99_us", stats::quantile(&late, 0.99));
    out.set("serve.open_p50_us", stats::quantile(&latencies, 0.5));
    out.set("serve.open_p90_us", stats::quantile(&latencies, 0.9));
    out.set("loadgen.p99_us", stats::quantile(&latencies, 0.99));
    out.set("serve.connections", open_delta("mfcsld_connections_total"));
    out.set("serve.warm_hit_frac", warm / (warm + cold));
    out.set("serve.cold_starts", cold / n);
    out.set(
        "serve.evictions",
        single_delta("mfcsld_sessions_evicted_total") / n,
    );
    out.set(
        "serve.rejected_429",
        open_delta("mfcsld_requests_rejected_total"),
    );
    out.set(
        "serve.scrape_p50_us",
        if scrapes.is_empty() {
            0.0
        } else {
            stats::median(&scrapes)
        },
    );
    out.set(
        "serve.rss_b_per_request",
        (rss1 as f64 - rss0 as f64) / latencies.len() as f64,
    );
    out.set(
        "core.trajectory_solves",
        single_delta("mfcsld_engine_trajectory_solves_total") / n,
    );
    out.set(
        "core.regime_solves",
        single_delta("mfcsld_engine_regime_solves_total") / n,
    );
    out.set(
        "csl.set_misses",
        single_delta("mfcsld_engine_sat_set_misses_total") / n,
    );
    out.set(
        "csl.curve_misses",
        single_delta("mfcsld_engine_curve_misses_total") / n,
    );
    out.set(
        "ode.rhs_evals",
        single_delta("mfcsld_engine_rhs_evals_total") / n,
    );
    out.set(
        "pool.tasks_per_op",
        single_delta("mfcsld_pool_tasks_total") / n,
    );
    let single_p50 = stats::median(&single);
    out.set("serve.single_conn_p50_us", single_p50);

    // In-process replay of the single-connection requests, untraced then
    // traced, each on a fresh store.
    let untraced = replay(
        args,
        spec,
        wire,
        single_items,
        &refs,
        &mut Tracer::disabled(),
        &mut out,
    )?;
    let mut tr = Tracer::with_capacity(single_items.len() * 10);
    let traced = replay(args, spec, wire, single_items, &refs, &mut tr, &mut out)?;
    let ops = single_items.len();
    let by_op = trace::self_us_by_op(tr.spans(), ops);
    let p50 = |names: &[&str]| trace::p50_self_us(&by_op, ops, names);
    let named: [(&'static str, &str); 6] = [
        ("serve.http_parse_us", "serve.http_parse"),
        ("serve.json_parse_us", "serve.json_parse"),
        ("core.formula_parse_us", "core.formula_parse"),
        ("serve.session_lookup_us", "serve.session_lookup"),
        ("core.check_all_us", "core.check_all"),
        ("serve.render_us", "serve.render"),
    ];
    let mut sum = 0.0;
    for (metric, span) in named {
        let v = p50(&[span]);
        sum += v;
        out.set(metric, v);
    }
    let instantiate: Vec<f64> = by_op
        .get("modelfile.instantiate")
        .map(|v| v.iter().copied().filter(|x| *x > 0.0).collect())
        .unwrap_or_default();
    if !instantiate.is_empty() {
        out.set("modelfile.instantiate_us", stats::median(&instantiate));
    }
    out.set("serve.unattributed_us", single_p50 - sum);
    out.set(
        "trace.self_sum_frac",
        (sum + p50(&["request"])) / single_p50,
    );
    out.set(
        "trace.overhead_frac",
        stats::median(&traced) / stats::median(&untraced) - 1.0,
    );
    out.note(format!(
        "single connection p50 {single_p50:.1} us; replay p50 {:.1} us untraced, {:.1} us traced",
        stats::median(&untraced),
        stats::median(&traced)
    ));
    if let Some(path) = &args.trace_out {
        tr.write_json(path, args.workload, args.seed)
            .map_err(|e| format!("write trace: {e}"))?;
    }
    Ok(out)
}

/// Replays `items` through the functions the daemon's handler calls, in
/// its order, one span each; checks each rendered response against the
/// reference. Returns each request's handling time in µs.
fn replay(
    args: &RunArgs,
    spec: &Spec,
    wire: &Wire,
    items: &[Item],
    refs: &[Option<u64>],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let registry =
        ModelRegistry::load(std::slice::from_ref(&args.models)).map_err(|e| e.to_string())?;
    let file = registry.get("virus").ok_or("no virus model")?;
    let store = SessionStore::new(
        Arc::new(ThreadPool::new(args.nproc)),
        spec.max_sessions,
        None,
    );
    let mut parser = RequestParser::new();
    let mut times = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let Some(k) = wire.key_of(*item) else {
            continue;
        };
        let id = i as u32;
        let t = Instant::now();
        let root = tr.open("request", id, None);
        let p = Some(root);
        let request = tr.span("serve.http_parse", id, p, || {
            parser.push(wire.bytes(*item));
            parser.next_request(1 << 20)
        });
        let Ok(Some(request)) = request else {
            return Err(format!("replay request {i} did not parse"));
        };
        let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
        let body = tr
            .span("serve.json_parse", id, p, || Json::parse(text))
            .map_err(|e| e.to_string())?;
        let m0: Option<Vec<f64>> = body
            .get("m0")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect());
        let m0 = Occupancy::new(m0.unwrap_or_default()).map_err(|e| e.to_string())?;
        let overrides = body
            .get("params")
            .and_then(Json::as_num_map)
            .unwrap_or_default();
        let texts: Vec<&str> = body
            .get("formulas")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_str).collect())
            .unwrap_or_default();
        let psis = tr
            .span("core.formula_parse", id, p, || {
                texts
                    .iter()
                    .map(|t| parse_formula(t))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        let key = SessionKey::new("virus", &overrides, false, None);
        let (session, warm) = tr
            .span("serve.session_lookup", id, p, || {
                store.get_or_create(&registry, &key)
            })
            .map_err(|e| e.to_string())?;
        let verdicts = tr
            .span("core.check_all", id, p, || session.check_all(&psis, &m0))
            .map_err(|e| e.to_string())?;
        let mut head = response_head(&m0, render_verdicts(&psis, &verdicts));
        if let Json::Obj(fields) = &mut head {
            fields.push(("warm".into(), Json::Bool(warm)));
            fields.push(("micros".into(), Json::Num(0.0)));
        }
        let response = head.render().into_bytes();
        let bytes = tr.span("serve.render", id, p, || {
            http::render_response(&HttpOutcome::new(200, "application/json", response), true)
        });
        tr.close(root);
        times.push(t.elapsed().as_secs_f64() * 1e6);
        if !warm {
            // Model instantiation happens inside `get_or_create` on a cold
            // key; time it on its own, outside the request's span tree.
            tr.span("modelfile.instantiate", id, None, || {
                file.instantiate_with(&overrides)
            })
            .map_err(|e| e.to_string())?;
        }
        out.attempted += 1;
        let body_start = bytes
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map_or(0, |p| p + 4);
        if Some(loadgen::verdict_digest(&bytes[body_start..])) != refs[k] {
            out.mismatch(format!(
                "replayed request {i} (key {k}) differs from the reference"
            ));
        }
    }
    Ok(times)
}
