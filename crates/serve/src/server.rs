//! The `mfcsld` daemon: request dispatch and drain-and-shutdown.
//!
//! Serving mechanics in one paragraph: every route is a pure function from a
//! parsed [`Request`] to an [`Outcome`] — `dispatch` below. The epoll
//! [`reactor`] moves the bytes: a small fixed pool of
//! event-loop threads multiplexing thousands of keep-alive connections,
//! handing parsed requests to worker threads that call `dispatch`. Check
//! requests resolve a warm [`crate::store::WarmSession`] keyed by
//! `(model, params, tolerances)` and fan their formula batch out through
//! `CheckSession::check_all`, which keeps daemon verdicts bitwise identical
//! to the offline CLI. `POST /shutdown` flips a shared atomic flag;
//! in-flight requests drain before the daemon exits, and with a `state_dir`
//! configured the store persists every warm session on the way down.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfcsl_core::mfcsl::parse_formula;
use mfcsl_core::{CoreError, FaultMode, FaultPlan, Occupancy};
use mfcsl_pool::ThreadPool;

use crate::http::{error_outcome, Outcome, Request};
use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::reactor::{self, ReactorOptions, RequestHandler};
use crate::registry::ModelRegistry;
use crate::store::{SessionKey, SessionStore, SimKey};

/// Largest accepted request body, in bytes.
const MAX_BODY: usize = 1 << 20;

/// Idle-connection timeout: a stalled client cannot pin resources forever.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Granularity of the debug-sleep loop (which re-checks the deadline
/// between naps).
const SLEEP_SLICE: Duration = Duration::from_millis(5);

/// Upper bound on a request's `timeout_ms` (one hour). Client-supplied
/// values are clamped here before the `Duration` conversion, which panics
/// on overflow.
const MAX_TIMEOUT_MS: f64 = 3_600_000.0;

/// Upper bound on the debug `sleep_ms` field (one minute).
const MAX_SLEEP_MS: f64 = 60_000.0;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads popping the admission queue.
    pub workers: usize,
    /// Admission-queue capacity; requests beyond it get `429`.
    pub queue_capacity: usize,
    /// Checking-pool lanes shared by all sessions (`0` → the machine's
    /// available parallelism).
    pub threads: usize,
    /// Most warm sessions retained at once; beyond it the least recently
    /// used session is evicted.
    pub max_sessions: usize,
    /// Honor the debug `sleep_ms` request field (load tests only).
    pub allow_sleep: bool,
    /// Honor the `fault` request field (chaos tests only). Off by default:
    /// without the flag, fault requests get `400 faults_disabled`.
    pub allow_faults: bool,
    /// Event-loop threads (at least 1).
    pub event_loops: usize,
    /// Warm-state snapshot directory: sessions persist on eviction and on
    /// graceful drain, and are restored at startup, so a restarted daemon
    /// answers its first request warm.
    pub state_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 64,
            threads: 0,
            max_sessions: 64,
            allow_sleep: false,
            allow_faults: false,
            event_loops: 2,
            state_dir: None,
        }
    }
}

/// State shared by the request handlers.
pub(crate) struct Shared {
    registry: ModelRegistry,
    store: SessionStore,
    pool: Arc<ThreadPool>,
    metrics: Arc<ServerMetrics>,
    config: ServerConfig,
    /// The reactor's live request-queue depth, exported for `/metrics`.
    queue_depth: Arc<AtomicUsize>,
}

/// A bound-but-not-yet-running daemon. [`Server::bind`] then
/// [`Server::run`]; `run` blocks until a `POST /shutdown` drains the queue.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and builds the shared state. With a `state_dir`
    /// configured, previously persisted sessions are restored here, before
    /// the first request can arrive.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(registry: ModelRegistry, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let pool = Arc::new(if config.threads == 0 {
            ThreadPool::with_default_parallelism()
        } else {
            ThreadPool::new(config.threads)
        });
        let store = SessionStore::new(
            Arc::clone(&pool),
            config.max_sessions,
            config.state_dir.clone(),
        );
        store.load_state_dir(&registry);
        let shared = Arc::new(Shared {
            registry,
            store,
            pool,
            metrics: Arc::new(ServerMetrics::new()),
            config,
            queue_depth: Arc::new(AtomicUsize::new(0)),
        });
        Ok(Server {
            listener,
            local_addr,
            shared,
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Runs the daemon on the reactor until a `POST /shutdown` drains it,
    /// then persists warm state (when a `state_dir` is configured). Returns
    /// when the last in-flight request finished.
    ///
    /// # Errors
    ///
    /// Propagates transport and event-loop setup failures.
    pub fn run(self) -> std::io::Result<()> {
        let shared = self.shared;
        let handler: Arc<dyn RequestHandler> = Arc::new(DaemonHandler {
            shared: Arc::clone(&shared),
        });
        let options = ReactorOptions {
            event_loops: shared.config.event_loops,
            workers: shared.config.workers,
            queue_capacity: shared.config.queue_capacity,
            max_body: MAX_BODY,
            idle_timeout: IDLE_TIMEOUT,
            metrics: Arc::clone(&shared.metrics),
            shutdown: Arc::new(AtomicBool::new(false)),
            queue_depth: Arc::clone(&shared.queue_depth),
        };
        reactor::run(self.listener, handler, options)?;
        shared.store.save_all();
        Ok(())
    }
}

/// Adapts the daemon's dispatcher to the reactor's handler trait.
struct DaemonHandler {
    shared: Arc<Shared>,
}

impl RequestHandler for DaemonHandler {
    fn handle(&self, request: &Request, enqueued_at: Instant) -> Outcome {
        dispatch(&self.shared, request, enqueued_at)
    }
}

/// The routing table: one parsed request in, one response out. Pure with
/// respect to the transport, so the reactor (and any test harness) produce
/// byte-identical response bodies.
fn dispatch(shared: &Arc<Shared>, request: &Request, enqueued_at: Instant) -> Outcome {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Outcome::new(200, "text/plain", b"ok\n".to_vec()),
        ("GET", "/metrics") => {
            let body = shared.metrics.render(
                &shared.store.merged_stats(),
                &shared.pool.stats(),
                shared.store.len(),
                shared.store.evicted(),
                shared.store.quarantined(),
                shared.queue_depth.load(Ordering::Relaxed),
                shared.config.queue_capacity,
                &shared.store.snapshot_counters(),
            );
            Outcome::new(200, "text/plain", body.into_bytes())
        }
        ("GET", "/v1/models") => {
            let names = Json::Arr(
                shared
                    .registry
                    .names()
                    .into_iter()
                    .map(Json::from)
                    .collect(),
            );
            let body = Json::Obj(vec![("models".into(), names)]).render();
            Outcome::new(200, "application/json", body.into_bytes())
        }
        ("POST", "/shutdown") => {
            let body = Json::Obj(vec![("draining".into(), Json::Bool(true))]).render();
            let mut outcome = Outcome::new(200, "application/json", body.into_bytes());
            outcome.shutdown = true;
            outcome.close = true;
            outcome
        }
        ("POST", "/v1/check") => handle_check(shared, request, enqueued_at),
        ("POST", "/v1/prewarm") => handle_prewarm(shared, request),
        _ => {
            shared.metrics.client_errors.fetch_add(1, Ordering::Relaxed);
            error_outcome(
                404,
                "not_found",
                &format!("no route {} {}", request.method, request.path),
            )
        }
    }
}

/// Bumps the client-error counter and builds the error response.
fn client_error(shared: &Shared, status: u16, code: &str, message: &str) -> Outcome {
    shared.metrics.client_errors.fetch_add(1, Ordering::Relaxed);
    error_outcome(status, code, message)
}

/// First top-level field of `body` that the route does not know, if any. A
/// typo'd field name (`"poplation"`) must fail loudly with a structured
/// `400` naming the field, never be silently ignored — silently dropping
/// `"population"` would answer a statistical question with the mean-field
/// engine.
fn unknown_field<'a>(body: &'a Json, known: &[&str]) -> Option<&'a str> {
    match body {
        Json::Obj(fields) => fields
            .iter()
            .map(|(name, _)| name.as_str())
            .find(|name| !known.contains(name)),
        _ => None,
    }
}

/// Decodes an optional non-negative integer field (population sizes,
/// replication counts, seeds).
fn uint_field(body: &Json, name: &str) -> Result<Option<u64>, String> {
    match body.get(name) {
        None => Ok(None),
        Some(v) => match v.as_f64() {
            Some(n) if n.is_finite() && n >= 0.0 && n <= 2f64.powi(53) && n.fract() == 0.0 => {
                Ok(Some(n as u64))
            }
            _ => Err(format!("`{name}` must be a non-negative integer")),
        },
    }
}

/// `POST /v1/check`: one formula batch against one model/occupancy.
fn handle_check(shared: &Arc<Shared>, request: &Request, enqueued_at: Instant) -> Outcome {
    let body = match std::str::from_utf8(&request.body)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => return client_error(shared, 400, "bad_request", &format!("bad JSON body: {e}")),
    };

    // -- decode ----------------------------------------------------------
    const KNOWN_FIELDS: &[&str] = &[
        "model",
        "m0",
        "formulas",
        "fast",
        "params",
        "fault",
        "timeout_ms",
        "sleep_ms",
        "mode",
        "population",
        "replications",
        "seed",
    ];
    if let Some(name) = unknown_field(&body, KNOWN_FIELDS) {
        return client_error(
            shared,
            400,
            "bad_request",
            &format!("unknown request field `{name}`"),
        );
    }
    let Some(model_name) = body.get("model").and_then(Json::as_str) else {
        return client_error(shared, 400, "bad_request", "missing string field `model`");
    };
    if shared.registry.get(model_name).is_none() {
        return client_error(
            shared,
            404,
            "unknown_model",
            &format!("unknown model `{model_name}`"),
        );
    }
    let Some(m0_values) = body.get("m0").and_then(Json::as_arr) else {
        return client_error(shared, 400, "bad_request", "missing array field `m0`");
    };
    let Some(formula_texts) = body.get("formulas").and_then(Json::as_arr) else {
        return client_error(shared, 400, "bad_request", "missing array field `formulas`");
    };
    let fast = body.get("fast").and_then(Json::as_bool).unwrap_or(false);
    let overrides = match body.get("params") {
        None => std::collections::BTreeMap::new(),
        Some(v) => match v.as_num_map() {
            Some(m) => m,
            None => {
                return client_error(
                    shared,
                    400,
                    "bad_request",
                    "`params` must map names to numbers",
                )
            }
        },
    };
    let fault = match parse_fault(&body, shared.config.allow_faults) {
        Ok(f) => f,
        Err((code, message)) => return client_error(shared, 400, code, &message),
    };
    let simulate = match body.get("mode") {
        None => false,
        Some(v) => match v.as_str() {
            Some("meanfield") => false,
            Some("simulate") => true,
            _ => {
                return client_error(
                    shared,
                    400,
                    "bad_request",
                    "`mode` must be \"meanfield\" or \"simulate\"",
                )
            }
        },
    };
    let mut sim_fields = [None; 3];
    for (slot, name) in sim_fields
        .iter_mut()
        .zip(["population", "replications", "seed"])
    {
        *slot = match uint_field(&body, name) {
            Ok(v) => v,
            Err(e) => return client_error(shared, 400, "bad_request", &e),
        };
        if !simulate && slot.is_some() {
            return client_error(
                shared,
                400,
                "bad_request",
                &format!("`{name}` requires \"mode\": \"simulate\""),
            );
        }
    }
    if simulate && fault.is_some() {
        return client_error(
            shared,
            400,
            "bad_request",
            "`fault` is not supported with \"mode\": \"simulate\"",
        );
    }
    let timeout_ms = match millis_field(&body, "timeout_ms", MAX_TIMEOUT_MS) {
        Ok(v) => v,
        Err(e) => return client_error(shared, 400, "bad_request", &e),
    };
    let deadline = timeout_ms.map(|ms| enqueued_at + Duration::from_secs_f64(ms / 1e3));
    let sleep_ms = match millis_field(&body, "sleep_ms", MAX_SLEEP_MS) {
        Ok(v) => v.unwrap_or(0.0),
        Err(e) => return client_error(shared, 400, "bad_request", &e),
    };

    // -- debug sleep (load tests), slice-wise so deadlines still fire ----
    if shared.config.allow_sleep && sleep_ms > 0.0 {
        let until = Instant::now() + Duration::from_secs_f64(sleep_ms / 1e3);
        while Instant::now() < until {
            if past(deadline) {
                return timeout(shared, enqueued_at);
            }
            std::thread::sleep(SLEEP_SLICE.min(until - Instant::now()));
        }
    }
    if past(deadline) {
        return timeout(shared, enqueued_at);
    }

    // -- validate against the engine's own types -------------------------
    let fractions: Option<Vec<f64>> = m0_values.iter().map(Json::as_f64).collect();
    let m0 = match fractions
        .ok_or_else(|| "`m0` must contain numbers".to_string())
        .and_then(|f| Occupancy::new(f).map_err(|e| e.to_string()))
    {
        Ok(m) => m,
        Err(e) => return client_error(shared, 400, "bad_request", &format!("bad `m0`: {e}")),
    };
    let texts: Option<Vec<&str>> = formula_texts.iter().map(Json::as_str).collect();
    let Some(texts) = texts else {
        return client_error(
            shared,
            400,
            "bad_request",
            "`formulas` must contain strings",
        );
    };
    if texts.is_empty() {
        return client_error(shared, 400, "bad_request", "`formulas` must not be empty");
    }
    let psis: Result<Vec<_>, _> = texts.iter().map(|t| parse_formula(t)).collect();
    let psis = match psis {
        Ok(p) => p,
        Err(e) => return client_error(shared, 400, "bad_request", &format!("bad formula: {e}")),
    };

    // -- resolve the warm session ----------------------------------------
    let mut key = SessionKey::new(model_name, &overrides, fast, fault);
    if simulate {
        key.sim = Some(SimKey {
            population: sim_fields[0].unwrap_or(100),
            replications: sim_fields[1].unwrap_or(200),
            seed: sim_fields[2].unwrap_or(0),
        });
    }
    let (session, warm) = match shared.store.get_or_create(&shared.registry, &key) {
        Ok(pair) => pair,
        Err(e) => {
            let (status, code) = if e.to_string().contains("unknown model") {
                (404, "unknown_model")
            } else {
                (400, "bad_request")
            };
            return client_error(shared, status, code, &e.to_string());
        }
    };
    if warm {
        shared.metrics.warm_hits.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.metrics.cold_starts.fetch_add(1, Ordering::Relaxed);
    }
    if past(deadline) {
        return timeout(shared, enqueued_at);
    }

    // -- check ------------------------------------------------------------
    let started = Instant::now();
    if let Some(sim) = key.sim {
        let verdicts = match session.simulate_all(&psis, &m0) {
            Ok(v) => {
                shared.store.record_success(&key);
                v
            }
            Err(e) => {
                let (status, code) = classify_engine_error(&e);
                if status >= 500 {
                    shared.metrics.engine_errors.fetch_add(1, Ordering::Relaxed);
                    shared.store.record_failure(&key);
                } else {
                    shared.metrics.client_errors.fetch_add(1, Ordering::Relaxed);
                }
                return error_outcome(status, code, &e.to_string());
            }
        };
        let micros = started.elapsed().as_secs_f64() * 1e6;
        let batch = verdicts
            .iter()
            .map(|v| v.replications as u64)
            .max()
            .unwrap_or(0);
        let rendered: Vec<Json> = psis
            .iter()
            .zip(&verdicts)
            .map(|(psi, v)| {
                let estimates: Vec<Json> = v
                    .operators
                    .iter()
                    .map(|op| {
                        Json::Obj(vec![
                            ("operator".into(), Json::Str(op.operator.clone())),
                            ("mean".into(), Json::Num(op.estimate.mean)),
                            ("lo".into(), Json::Num(op.estimate.lo)),
                            ("hi".into(), Json::Num(op.estimate.hi)),
                            ("n".into(), Json::Num(op.estimate.n as f64)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("formula".into(), Json::Str(psi.to_string())),
                    ("holds".into(), Json::Bool(v.holds)),
                    ("marginal".into(), Json::Bool(v.marginal)),
                    ("estimates".into(), Json::Arr(estimates)),
                ])
            })
            .collect();
        let response = Json::Obj(vec![
            ("model".into(), Json::from(model_name)),
            ("m0".into(), Json::Str(m0.to_string())),
            ("mode".into(), Json::from("simulate")),
            ("population".into(), Json::Num(sim.population as f64)),
            ("replications".into(), Json::Num(batch as f64)),
            ("verdicts".into(), Json::Arr(rendered)),
            ("warm".into(), Json::Bool(warm)),
            ("micros".into(), Json::Num(micros)),
        ])
        .render();
        shared
            .metrics
            .simulate_requests
            .fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .simulate_replications
            .fetch_add(batch, Ordering::Relaxed);
        shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
        shared.metrics.observe_latency(enqueued_at.elapsed());
        return Outcome::new(200, "application/json", response.into_bytes());
    }
    let verdicts = match session.check_all(&psis, &m0) {
        Ok(v) => {
            shared.store.record_success(&key);
            v
        }
        Err(e) => {
            // An engine failure on validated input is the daemon's problem,
            // not the client's: answer 500 with a machine-readable code (the
            // worker survives either way), and count the session toward
            // quarantine so a poisoned cache cannot keep failing forever.
            let (status, code) = classify_engine_error(&e);
            if status >= 500 {
                shared.metrics.engine_errors.fetch_add(1, Ordering::Relaxed);
                shared.store.record_failure(&key);
            } else {
                shared.metrics.client_errors.fetch_add(1, Ordering::Relaxed);
            }
            return error_outcome(status, code, &e.to_string());
        }
    };
    let micros = started.elapsed().as_secs_f64() * 1e6;

    // Formulas are echoed back *rendered* (the parsed form's display), so
    // clients can print lines bitwise identical to `mfcsl check`.
    let rendered: Vec<Json> = psis
        .iter()
        .zip(&verdicts)
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
        .collect();
    let response = Json::Obj(vec![
        ("model".into(), Json::from(model_name)),
        ("m0".into(), Json::Str(m0.to_string())),
        ("fast".into(), Json::Bool(fast)),
        ("verdicts".into(), Json::Arr(rendered)),
        ("warm".into(), Json::Bool(warm)),
        ("micros".into(), Json::Num(micros)),
    ])
    .render();
    shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
    shared.metrics.observe_latency(enqueued_at.elapsed());
    Outcome::new(200, "application/json", response.into_bytes())
}

/// `POST /v1/prewarm`: solve a sweep of initial occupancies for one model
/// with one batched Dopri5 drive, so subsequent `/v1/check` requests find
/// their trajectories warm. Body:
/// `{"model": "...", "m0s": [[...], ...], "horizon": T,
///   "fast"?: bool, "params"?: {...}}`. Answers
/// `{"model", "warmed": n, "lanes": len(m0s), "warm": bool, "micros"}`.
/// The batch runs with per-lane controllers, so a prewarmed session's
/// verdicts stay bitwise identical to a cold one's.
fn handle_prewarm(shared: &Arc<Shared>, request: &Request) -> Outcome {
    let body = match std::str::from_utf8(&request.body)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => return client_error(shared, 400, "bad_request", &format!("bad JSON body: {e}")),
    };
    if let Some(name) = unknown_field(&body, &["model", "m0s", "horizon", "fast", "params"]) {
        return client_error(
            shared,
            400,
            "bad_request",
            &format!("unknown request field `{name}`"),
        );
    }
    let Some(model_name) = body.get("model").and_then(Json::as_str) else {
        return client_error(shared, 400, "bad_request", "missing string field `model`");
    };
    if shared.registry.get(model_name).is_none() {
        return client_error(
            shared,
            404,
            "unknown_model",
            &format!("unknown model `{model_name}`"),
        );
    }
    let Some(lanes) = body.get("m0s").and_then(Json::as_arr) else {
        return client_error(shared, 400, "bad_request", "missing array field `m0s`");
    };
    let mut m0s = Vec::with_capacity(lanes.len());
    for (i, lane) in lanes.iter().enumerate() {
        let fractions: Option<Vec<f64>> = lane
            .as_arr()
            .map(|vs| vs.iter().map(Json::as_f64).collect())
            .unwrap_or(None);
        let m0 = fractions
            .ok_or_else(|| "must be an array of numbers".to_string())
            .and_then(|f| Occupancy::new(f).map_err(|e| e.to_string()));
        match m0 {
            Ok(m) => m0s.push(m),
            Err(e) => {
                return client_error(shared, 400, "bad_request", &format!("bad `m0s[{i}]`: {e}"))
            }
        }
    }
    let horizon = match body.get("horizon").and_then(Json::as_f64) {
        Some(t) if t.is_finite() && t > 0.0 => t,
        _ => {
            return client_error(
                shared,
                400,
                "bad_request",
                "`horizon` must be a finite positive time",
            )
        }
    };
    let fast = body.get("fast").and_then(Json::as_bool).unwrap_or(false);
    let overrides = match body.get("params") {
        None => std::collections::BTreeMap::new(),
        Some(v) => match v.as_num_map() {
            Some(m) => m,
            None => {
                return client_error(
                    shared,
                    400,
                    "bad_request",
                    "`params` must map names to numbers",
                )
            }
        },
    };

    // Prewarm never runs on a faulted session: the fault stream is defined
    // over scalar solves, and the engine itself declines batching there.
    let key = SessionKey::new(model_name, &overrides, fast, None);
    let (session, warm) = match shared.store.get_or_create(&shared.registry, &key) {
        Ok(pair) => pair,
        Err(e) => {
            let (status, code) = if e.to_string().contains("unknown model") {
                (404, "unknown_model")
            } else {
                (400, "bad_request")
            };
            return client_error(shared, status, code, &e.to_string());
        }
    };
    if warm {
        shared.metrics.warm_hits.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.metrics.cold_starts.fetch_add(1, Ordering::Relaxed);
    }
    let started = Instant::now();
    let warmed = match session.prewarm(&m0s, horizon) {
        Ok(n) => {
            shared.store.record_success(&key);
            n
        }
        Err(e) => {
            let (status, code) = classify_engine_error(&e);
            if status >= 500 {
                shared.metrics.engine_errors.fetch_add(1, Ordering::Relaxed);
                shared.store.record_failure(&key);
            } else {
                shared.metrics.client_errors.fetch_add(1, Ordering::Relaxed);
            }
            return error_outcome(status, code, &e.to_string());
        }
    };
    let micros = started.elapsed().as_secs_f64() * 1e6;
    shared.metrics.prewarms.fetch_add(1, Ordering::Relaxed);
    let response = Json::Obj(vec![
        ("model".into(), Json::from(model_name)),
        ("warmed".into(), Json::Num(warmed as f64)),
        ("lanes".into(), Json::Num(m0s.len() as f64)),
        ("warm".into(), Json::Bool(warm)),
        ("micros".into(), Json::Num(micros)),
    ])
    .render();
    Outcome::new(200, "application/json", response.into_bytes())
}

/// Decodes an optional millisecond field. Non-numbers, negatives, and
/// non-finite values (`1e999` parses to infinity) are rejected — fed raw to
/// `Duration::from_secs_f64` they would panic and kill the worker — and
/// finite values are clamped to `cap_ms`.
fn millis_field(body: &Json, name: &str, cap_ms: f64) -> Result<Option<f64>, String> {
    match body.get(name) {
        None => Ok(None),
        Some(v) => match v.as_f64() {
            Some(ms) if ms.is_finite() && ms >= 0.0 => Ok(Some(ms.min(cap_ms))),
            _ => Err(format!(
                "`{name}` must be a finite non-negative number of milliseconds"
            )),
        },
    }
}

/// Decodes the optional `fault` request object (chaos tests only):
/// `{"mode": "nan"|"reject"|"stiffen", "period"?: n, "seed"?: n}`. Requires
/// the daemon to run with fault injection enabled.
fn parse_fault(
    body: &Json,
    allow_faults: bool,
) -> Result<Option<FaultPlan>, (&'static str, String)> {
    let Some(spec) = body.get("fault") else {
        return Ok(None);
    };
    if !allow_faults {
        return Err((
            "faults_disabled",
            "fault injection is disabled; start the daemon with --allow-faults".into(),
        ));
    }
    let mode = spec
        .get("mode")
        .and_then(Json::as_str)
        .and_then(FaultMode::parse)
        .ok_or_else(|| {
            (
                "bad_request",
                "`fault.mode` must be one of `nan`, `reject`, `stiffen`".to_string(),
            )
        })?;
    let uint_field = |name: &str, default: u64| match spec.get(name) {
        None => Ok(default),
        Some(v) => match v.as_f64() {
            Some(n) if n.is_finite() && n >= 0.0 && n <= 2f64.powi(53) && n.fract() == 0.0 => {
                Ok(n as u64)
            }
            _ => Err((
                "bad_request",
                format!("`fault.{name}` must be a non-negative integer"),
            )),
        },
    };
    let period = uint_field("period", 1)?;
    let seed = uint_field("seed", 0)?;
    Ok(Some(FaultPlan::new(mode, period, seed)))
}

/// Maps a checking failure to `(status, code)`. Input-shaped errors that
/// slipped past request validation stay `4xx`; anything numerical — the
/// solver, the transient/uniformization layer, linear algebra — is the
/// engine's own failure and must surface as `500`, never as a client fault
/// and never as a dead worker.
fn classify_engine_error(e: &CoreError) -> (u16, &'static str) {
    use mfcsl_csl::CslError;
    match e {
        CoreError::UnknownState(_)
        | CoreError::InvalidModel(_)
        | CoreError::InvalidRate { .. }
        | CoreError::Parse { .. }
        | CoreError::InvalidArgument(_) => (400, "bad_request"),
        CoreError::NoStationaryPoint(_) => (400, "no_stationary_point"),
        // The CSL layer wraps both input-shaped complaints (a typo'd label,
        // an unsupported fragment) and genuine numerical failures; only the
        // latter are the daemon's fault.
        CoreError::Csl(
            CslError::UnknownAtomicProposition(_)
            | CslError::Parse { .. }
            | CslError::Unsupported(_)
            | CslError::InvalidArgument(_),
        ) => (400, "bad_request"),
        CoreError::Csl(CslError::NoStationaryDistribution) => (400, "no_stationary_point"),
        CoreError::Csl(CslError::Ctmc(_) | CslError::Ode(_) | CslError::Math(_))
        | CoreError::Ctmc(_)
        | CoreError::Ode(_)
        | CoreError::Math(_) => (500, "engine_numerical"),
    }
}

fn past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

fn timeout(shared: &Arc<Shared>, enqueued_at: Instant) -> Outcome {
    shared.metrics.timed_out.fetch_add(1, Ordering::Relaxed);
    shared.metrics.observe_latency(enqueued_at.elapsed());
    error_outcome(504, "deadline_exceeded", "deadline exceeded")
}
