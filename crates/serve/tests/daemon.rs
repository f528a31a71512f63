//! End-to-end tests for the `mfcsld` daemon: real sockets, real worker
//! threads, verdicts compared against the offline engine.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfcsl_core::mfcsl::{parse_formula, CheckSession};
use mfcsl_core::Occupancy;
use mfcsl_serve::client::{self, CheckRequest, ClientError};
use mfcsl_serve::{ModelRegistry, Server, ServerConfig};

fn modelfile_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../modelfiles")
}

fn start_daemon(config: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
    let registry = ModelRegistry::load(&[modelfile_dir()]).unwrap();
    let server = Server::bind(registry, config).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, handle)
}

const VIRUS_M0: [f64; 3] = [0.8, 0.15, 0.05];

fn virus_formulas() -> Vec<String> {
    [
        "E{<0.3}[ infected ]",
        "EP{>0}[ tt U[0,2] infected ]",
        "EP{<0.5}[ not_infected U[0,1] active ]",
        "ES{>0.1}[ infected ]",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect()
}

#[test]
fn daemon_matches_offline_engine_and_reuses_sessions() {
    let (addr, handle) = start_daemon(ServerConfig::default());

    // Offline reference: same model file, same batch through check_all.
    let file = mfcsl_modelfile::ModelFile::load(&modelfile_dir().join("virus.mf")).unwrap();
    let model = file.instantiate().unwrap();
    let session = CheckSession::new(&model);
    let psis: Vec<_> = virus_formulas()
        .iter()
        .map(|f| parse_formula(f).unwrap())
        .collect();
    let m0 = Occupancy::new(VIRUS_M0.to_vec()).unwrap();
    let offline = session.check_all(&psis, &m0).unwrap();

    let request = CheckRequest::new("virus", &VIRUS_M0, &virus_formulas());
    let cold = client::post_check(&addr, &request).unwrap();
    assert!(!cold.warm, "first request must build the session");
    assert_eq!(cold.verdicts.len(), offline.len());
    for (wire, reference) in cold.verdicts.iter().zip(&offline) {
        assert_eq!(wire.holds, reference.holds(), "{}", wire.formula);
        assert_eq!(wire.marginal, reference.is_marginal(), "{}", wire.formula);
    }
    // The server echoes the occupancy and formulas in their parsed
    // renderings, so clients can reproduce offline output verbatim.
    assert_eq!(cold.m0, m0.to_string());
    for (wire, psi) in cold.verdicts.iter().zip(&psis) {
        assert_eq!(wire.formula, psi.to_string());
    }

    // Second identical batch: warm session, answered from the caches.
    let warm = client::post_check(&addr, &request).unwrap();
    assert!(warm.warm, "second request must hit the warm session");
    for (a, b) in cold.verdicts.iter().zip(&warm.verdicts) {
        assert_eq!(a, b);
    }

    // A different tolerance preset is a different session.
    let mut fast = request.clone();
    fast.fast = true;
    assert!(!client::post_check(&addr, &fast).unwrap().warm);

    // A parameter override is a different session too.
    let mut tweaked = request.clone();
    tweaked.params.insert("k2".into(), 0.5);
    assert!(!client::post_check(&addr, &tweaked).unwrap().warm);

    assert_eq!(client::get_text(&addr, "/healthz").unwrap(), "ok\n");
    let models = client::get_text(&addr, "/v1/models").unwrap();
    assert!(models.contains("\"virus\""), "{models}");

    let metrics = client::get_text(&addr, "/metrics").unwrap();
    assert!(
        metrics.contains("mfcsld_session_warm_hits_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mfcsld_session_cold_starts_total 3"),
        "{metrics}"
    );
    assert!(metrics.contains("mfcsld_sessions_warm 3"), "{metrics}");
    // The warm batch re-used the cold batch's trajectory.
    assert!(
        metrics.contains("mfcsld_engine_trajectory_solves_total 3"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mfcsld_requests_completed_total 4"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mfcsld_requests_rejected_total 0"),
        "{metrics}"
    );

    client::shutdown(&addr).unwrap();
    handle.join().unwrap();
    // The socket is gone after shutdown.
    assert!(client::get_text(&addr, "/healthz").is_err());
}

#[test]
fn daemon_validates_requests() {
    let (addr, handle) = start_daemon(ServerConfig::default());

    let formulas = vec!["E{<0.3}[ infected ]".to_string()];
    fn status<T: std::fmt::Debug>(r: Result<T, ClientError>) -> (u16, String) {
        match r {
            Err(ClientError::Status {
                status, message, ..
            }) => (status, message),
            other => panic!("expected a status error, got {other:?}"),
        }
    }

    let (code, msg) = status(client::post_check(
        &addr,
        &CheckRequest::new("ghost", &VIRUS_M0, &formulas),
    ));
    assert_eq!(code, 404);
    assert!(msg.contains("unknown model `ghost`"), "{msg}");

    let (code, msg) = status(client::post_check(
        &addr,
        &CheckRequest::new("virus", &[0.5, 0.6, 0.2], &formulas),
    ));
    assert_eq!(code, 400);
    assert!(msg.contains("bad `m0`"), "{msg}");

    let (code, msg) = status(client::post_check(
        &addr,
        &CheckRequest::new("virus", &VIRUS_M0, &["E{<0.3}[ ghost_label ]".to_string()]),
    ));
    assert_eq!(code, 400);
    assert!(msg.contains("ghost_label"), "{msg}");

    let mut bad_param = CheckRequest::new("virus", &VIRUS_M0, &formulas);
    bad_param.params.insert("zz".into(), 1.0);
    let (code, msg) = status(client::post_check(&addr, &bad_param));
    assert_eq!(code, 400);
    assert!(msg.contains("unknown parameter override `zz`"), "{msg}");

    let (code, _) = status(client::get_text(&addr, "/nothing/here"));
    assert_eq!(code, 404);

    client::shutdown(&addr).unwrap();
    handle.join().unwrap();
}

#[test]
fn daemon_applies_backpressure_and_deadlines() {
    // One worker, queue of one: a sleeping request plus a queued request
    // saturate the daemon, so a third connection gets 429 at accept time.
    let (addr, handle) = start_daemon(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        threads: 1,
        allow_sleep: true,
        ..ServerConfig::default()
    });
    let formulas = vec!["E{<0.3}[ infected ]".to_string()];

    let mut sleepy = CheckRequest::new("virus", &VIRUS_M0, &formulas);
    sleepy.sleep_ms = Some(600.0);
    let addr_a = addr.clone();
    let s_a = sleepy.clone();
    let a = std::thread::spawn(move || client::post_check(&addr_a, &s_a));
    // Wait until the worker has picked request A up (its connection leaves
    // the queue), then fill the queue with B.
    std::thread::sleep(Duration::from_millis(150));
    let addr_b = addr.clone();
    let s_b = sleepy.clone();
    let b = std::thread::spawn(move || client::post_check(&addr_b, &s_b));
    std::thread::sleep(Duration::from_millis(150));

    // C: the queue is full → 429 with a Retry-After hint, immediately.
    let started = Instant::now();
    let c = client::post_check(&addr, &CheckRequest::new("virus", &VIRUS_M0, &formulas));
    match c {
        Err(ClientError::Status {
            status,
            retry_after,
            ..
        }) => {
            assert_eq!(status, 429);
            assert_eq!(retry_after, Some(1));
        }
        other => panic!("expected 429, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_millis(400),
        "429 must not wait for the queue to drain"
    );

    // A and B both complete once the worker gets to them.
    assert!(a.join().unwrap().unwrap().verdicts[0].holds);
    assert!(b.join().unwrap().unwrap().verdicts[0].holds);

    // A request whose deadline expires while it sleeps gets 504.
    let mut doomed = CheckRequest::new("virus", &VIRUS_M0, &formulas);
    doomed.sleep_ms = Some(2_000.0);
    doomed.timeout_ms = Some(100.0);
    match client::post_check(&addr, &doomed) {
        Err(ClientError::Status { status, code, .. }) => {
            assert_eq!(status, 504);
            assert_eq!(code.as_deref(), Some("deadline_exceeded"));
        }
        other => panic!("expected 504, got {other:?}"),
    }

    let metrics = client::get_text(&addr, "/metrics").unwrap();
    assert!(
        metrics.contains("mfcsld_requests_rejected_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mfcsld_requests_timed_out_total 1"),
        "{metrics}"
    );

    client::shutdown(&addr).unwrap();
    handle.join().unwrap();
}

#[test]
fn daemon_survives_hostile_requests() {
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    // One worker: every hostile request below hits the same worker, so the
    // final healthz proves none of them killed it.
    let (addr, handle) = start_daemon(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let formulas = vec!["E{<0.3}[ infected ]".to_string()];

    // `1e999` overflows f64 parsing to infinity; fed raw to
    // `Duration::from_secs_f64` it would panic. Must be a clean 400.
    for bad in [
        r#""timeout_ms":1e999"#,
        r#""timeout_ms":-5"#,
        r#""timeout_ms":"soon""#,
        r#""sleep_ms":1e999"#,
    ] {
        let body = format!(
            r#"{{"model":"virus","m0":[0.8,0.15,0.05],"formulas":["E{{<0.3}}[ infected ]"],{bad}}}"#
        );
        let mut stream = TcpStream::connect(&addr).unwrap();
        let resp = mfcsl_serve::http::roundtrip(&mut stream, "POST", "/v1/check", body.as_bytes())
            .unwrap();
        assert_eq!(resp.status, 400, "{bad} → {}", resp.text());
        assert!(
            resp.text().contains("finite non-negative"),
            "{bad} → {}",
            resp.text()
        );
    }

    // Absurd-but-finite timeouts are clamped (to 1h), never a panic.
    let mut capped = CheckRequest::new("virus", &VIRUS_M0, &formulas);
    capped.timeout_ms = Some(1e30);
    assert!(client::post_check(&addr, &capped).unwrap().verdicts[0].holds);

    // A header line with no newline is cut off at the line limit (the
    // exact 400 is unit-tested in `http`); here the worker must shrug it
    // off and keep serving.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nx-junk: ")
        .unwrap();
    let _ = stream.write_all(&vec![b'a'; 16 * 1024]);
    let _ = stream.flush();
    let mut reply = String::new();
    let _ = stream.read_to_string(&mut reply);
    drop(stream);

    // The lone worker is still alive and serving.
    assert_eq!(client::get_text(&addr, "/healthz").unwrap(), "ok\n");
    client::shutdown(&addr).unwrap();
    handle.join().unwrap();
}

#[test]
fn daemon_evicts_sessions_beyond_the_cap() {
    let (addr, handle) = start_daemon(ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    });
    let request = CheckRequest::new("virus", &VIRUS_M0, &virus_formulas());
    assert!(!client::post_check(&addr, &request).unwrap().warm);
    // A different key displaces the first session (cap is 1)…
    let mut tweaked = request.clone();
    tweaked.params.insert("k2".into(), 0.5);
    assert!(!client::post_check(&addr, &tweaked).unwrap().warm);
    // …so re-posting the first key is cold again, and the store stays at
    // one session no matter how many keys clients invent.
    assert!(!client::post_check(&addr, &request).unwrap().warm);
    let metrics = client::get_text(&addr, "/metrics").unwrap();
    assert!(metrics.contains("mfcsld_sessions_warm 1"), "{metrics}");
    assert!(
        metrics.contains("mfcsld_sessions_evicted_total 2"),
        "{metrics}"
    );
    // Engine totals include the evicted sessions' work: three cold
    // sessions each solved one trajectory.
    assert!(
        metrics.contains("mfcsld_engine_trajectory_solves_total 3"),
        "{metrics}"
    );
    client::shutdown(&addr).unwrap();
    handle.join().unwrap();
}

#[test]
fn fault_requests_need_the_opt_in_flag() {
    // Without --allow-faults, a fault request is refused up front with a
    // machine-readable code — it must never reach the engine.
    let (addr, handle) = start_daemon(ServerConfig::default());
    let mut request = CheckRequest::new("virus", &VIRUS_M0, &virus_formulas());
    request.fault = Some(mfcsl_core::FaultPlan::new(mfcsl_core::FaultMode::Nan, 1, 7));
    match client::post_check(&addr, &request) {
        Err(ClientError::Status { status, code, .. }) => {
            assert_eq!(status, 400);
            assert_eq!(code.as_deref(), Some("faults_disabled"));
        }
        other => panic!("expected 400 faults_disabled, got {other:?}"),
    }
    client::shutdown(&addr).unwrap();
    handle.join().unwrap();
}

#[test]
fn chaos_faults_give_structured_errors_quarantine_and_no_dead_workers() {
    // One worker: every request funnels through it, so surviving the whole
    // chaos run proves engine failures never kill a worker.
    let (addr, handle) = start_daemon(ServerConfig {
        workers: 1,
        allow_faults: true,
        ..ServerConfig::default()
    });
    // A time-bounded path formula forces a trajectory solve over [0, 2],
    // so the injected NaN actually reaches the integrator.
    let horizon_formula = vec!["EP{>0}[ tt U[0,2] infected ]".to_string()];
    let mut poisoned = CheckRequest::new("virus", &VIRUS_M0, &horizon_formula);
    poisoned.fault = Some(mfcsl_core::FaultPlan::new(mfcsl_core::FaultMode::Nan, 1, 7));
    let healthy = CheckRequest::new("virus", &VIRUS_M0, &horizon_formula);

    // Interleave repeated engine failures with healthy traffic: faulted
    // requests are 500s with a machine-readable code (a validated request
    // that fails is the daemon's problem, not the client's), while the
    // healthy session — a different key — keeps answering throughout.
    for round in 0..4 {
        match client::post_check(&addr, &poisoned) {
            Err(ClientError::Status {
                status,
                code,
                message,
                ..
            }) => {
                assert_eq!(status, 500, "round {round}: {message}");
                assert_eq!(code.as_deref(), Some("engine_numerical"), "round {round}");
            }
            other => panic!("round {round}: expected 500 engine_numerical, got {other:?}"),
        }
        assert!(
            client::post_check(&addr, &healthy).unwrap().verdicts[0].holds,
            "healthy traffic must keep flowing during the chaos run"
        );
    }

    let metrics = client::get_text(&addr, "/metrics").unwrap();
    // Three consecutive failures quarantine the poisoned session; the
    // fourth request rebuilt it from scratch (visible as a second cold
    // start for its key).
    assert!(
        metrics.contains("mfcsld_sessions_quarantined_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mfcsld_requests_engine_errors_total 4"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mfcsld_worker_panics_total 0"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mfcsld_requests_completed_total 4"),
        "{metrics}"
    );
    // The lone worker is still alive.
    assert_eq!(client::get_text(&addr, "/healthz").unwrap(), "ok\n");
    client::shutdown(&addr).unwrap();
    handle.join().unwrap();
}

#[test]
fn marginal_verdicts_carry_a_refinement_record_on_the_wire() {
    let (addr, handle) = start_daemon(ServerConfig::default());
    // The expectation at t=0 is exactly the infected mass (s2 + s3 = 0.2),
    // so bounding it by its own value is maximally marginal: the engine
    // refines through its whole round budget and reports that in the
    // response.
    let request = CheckRequest::new("virus", &VIRUS_M0, &["E{>=0.2}[ infected ]".to_string()]);
    let outcome = client::post_check(&addr, &request).unwrap();
    assert!(outcome.verdicts[0].marginal, "{:?}", outcome.verdicts);
    assert!(outcome.verdicts[0].refined, "{:?}", outcome.verdicts);
    // A comfortably non-marginal verdict carries no refinement record.
    let plain = CheckRequest::new("virus", &VIRUS_M0, &["E{<0.5}[ infected ]".to_string()]);
    let outcome = client::post_check(&addr, &plain).unwrap();
    assert!(!outcome.verdicts[0].marginal);
    assert!(!outcome.verdicts[0].refined);
    let metrics = client::get_text(&addr, "/metrics").unwrap();
    assert!(
        metrics.contains("mfcsld_engine_refined_verdicts_total 1"),
        "{metrics}"
    );
    client::shutdown(&addr).unwrap();
    handle.join().unwrap();
}

#[test]
fn prewarm_endpoint_batches_the_sweep_and_keeps_verdicts_bitwise() {
    use std::net::TcpStream;

    let (addr, handle) = start_daemon(ServerConfig::default());
    let sweep: [[f64; 3]; 3] = [VIRUS_M0, [0.7, 0.2, 0.1], [0.6, 0.3, 0.1]];

    // One prewarm request: three lanes, one batched Dopri5 drive.
    let body = format!(
        r#"{{"model":"virus","m0s":[{}],"horizon":5.0}}"#,
        sweep
            .iter()
            .map(|m| format!("[{},{},{}]", m[0], m[1], m[2]))
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut stream = TcpStream::connect(&addr).unwrap();
    let resp =
        mfcsl_serve::http::roundtrip(&mut stream, "POST", "/v1/prewarm", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let reply = mfcsl_serve::Json::parse(&resp.text()).unwrap();
    assert_eq!(
        reply.get("warmed").and_then(mfcsl_serve::Json::as_f64),
        Some(3.0)
    );
    assert_eq!(
        reply.get("lanes").and_then(mfcsl_serve::Json::as_f64),
        Some(3.0)
    );
    assert_eq!(
        reply.get("warm").and_then(mfcsl_serve::Json::as_bool),
        Some(false)
    );

    // Offline reference: a cold scalar session. The daemon prewarms with
    // per-lane controllers, so its verdicts must match bitwise — same
    // holds/marginal for every formula at every occupancy.
    let file = mfcsl_modelfile::ModelFile::load(&modelfile_dir().join("virus.mf")).unwrap();
    let model = file.instantiate().unwrap();
    let offline = CheckSession::new(&model);
    let psis: Vec<_> = virus_formulas()
        .iter()
        .map(|f| parse_formula(f).unwrap())
        .collect();
    for m0 in &sweep {
        let reference = offline
            .check_all(&psis, &Occupancy::new(m0.to_vec()).unwrap())
            .unwrap();
        let outcome =
            client::post_check(&addr, &CheckRequest::new("virus", m0, &virus_formulas())).unwrap();
        assert!(outcome.warm, "prewarm must have built the session");
        for (wire, scalar) in outcome.verdicts.iter().zip(&reference) {
            assert_eq!(wire.holds, scalar.holds(), "{} at {m0:?}", wire.formula);
            assert_eq!(
                wire.marginal,
                scalar.is_marginal(),
                "{} at {m0:?}",
                wire.formula
            );
        }
    }

    let metrics = client::get_text(&addr, "/metrics").unwrap();
    assert!(
        metrics.contains("mfcsld_prewarm_requests_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mfcsld_engine_prewarm_lanes_total 3"),
        "{metrics}"
    );
    // All three trajectories came from the one batched drive; the checks
    // afterwards reused them instead of solving scalar.
    assert!(
        metrics.contains("mfcsld_engine_trajectory_solves_total 3"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mfcsld_session_cold_starts_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mfcsld_session_warm_hits_total 3"),
        "{metrics}"
    );

    // Re-prewarming the same sweep is a cheap no-op: everything is cached.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let resp =
        mfcsl_serve::http::roundtrip(&mut stream, "POST", "/v1/prewarm", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let reply = mfcsl_serve::Json::parse(&resp.text()).unwrap();
    assert_eq!(
        reply.get("warmed").and_then(mfcsl_serve::Json::as_f64),
        Some(0.0)
    );

    // Malformed prewarms are clean client errors, never dead workers.
    for (bad, status) in [
        (
            r#"{"model":"ghost","m0s":[[0.8,0.15,0.05]],"horizon":5.0}"#,
            404,
        ),
        (
            r#"{"model":"virus","m0s":[[0.5,0.6,0.2]],"horizon":5.0}"#,
            400,
        ),
        (
            r#"{"model":"virus","m0s":[[0.8,0.15,0.05]],"horizon":-1.0}"#,
            400,
        ),
        (r#"{"model":"virus","m0s":"everywhere","horizon":5.0}"#, 400),
        (r#"{"model":"virus","horizon":5.0}"#, 400),
    ] {
        let mut stream = TcpStream::connect(&addr).unwrap();
        let resp = mfcsl_serve::http::roundtrip(&mut stream, "POST", "/v1/prewarm", bad.as_bytes())
            .unwrap();
        assert_eq!(resp.status, status, "{bad} → {}", resp.text());
    }
    assert_eq!(client::get_text(&addr, "/healthz").unwrap(), "ok\n");

    client::shutdown(&addr).unwrap();
    handle.join().unwrap();
}

#[test]
fn concurrent_clients_get_identical_verdicts() {
    let (addr, handle) = start_daemon(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let request = Arc::new(CheckRequest::new("virus", &VIRUS_M0, &virus_formulas()));
    let reference = client::post_check(&addr, &request).unwrap();

    let clients: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            let request = Arc::clone(&request);
            std::thread::spawn(move || client::post_check(&addr, &request).unwrap())
        })
        .collect();
    for c in clients {
        let outcome = c.join().unwrap();
        assert!(outcome.warm);
        assert_eq!(outcome.verdicts, reference.verdicts);
    }

    client::shutdown(&addr).unwrap();
    handle.join().unwrap();
}
