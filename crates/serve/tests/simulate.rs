//! End-to-end tests for the daemon's statistical lane: `"mode":
//! "simulate"` on `POST /v1/check` (finite-N verdicts with confidence
//! intervals), strict top-level field validation, and the guarantee that
//! simulated sessions never alias mean-field ones — in the store, in the
//! metrics, or in the warm-state snapshots.

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use mfcsl_serve::http::{roundtrip, Response};
use mfcsl_serve::{client, Json, ModelRegistry, Server, ServerConfig};

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

/// Posts a raw JSON body to `POST /v1/check` (the typed client cannot
/// express malformed requests, and the simulate response carries fields the
/// typed outcome does not decode).
fn post_raw(addr: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(120)));
    roundtrip(&mut stream, "POST", "/v1/check", body.as_bytes()).unwrap()
}

const SIMULATE_BODY: &str = concat!(
    "{\"model\":\"virus\",\"m0\":[0.8,0.15,0.05],",
    "\"formulas\":[\"EP{>0}[ tt U[0,2] infected ]\",\"E{<0.6}[ infected ]\"],",
    "\"mode\":\"simulate\",\"population\":50,\"replications\":60,\"seed\":7}"
);

#[test]
fn simulate_mode_serves_interval_verdicts_and_never_aliases_meanfield() {
    let (addr, handle) = start_daemon(ServerConfig::default());

    let cold = post_raw(&addr, SIMULATE_BODY);
    assert_eq!(cold.status, 200, "{}", cold.text());
    let body = Json::parse(&cold.text()).unwrap();
    assert_eq!(body.get("mode").and_then(Json::as_str), Some("simulate"));
    assert_eq!(body.get("population").and_then(Json::as_f64), Some(50.0));
    assert_eq!(body.get("replications").and_then(Json::as_f64), Some(60.0));
    assert_eq!(body.get("warm").and_then(Json::as_bool), Some(false));
    let verdicts = body.get("verdicts").and_then(Json::as_arr).unwrap();
    assert_eq!(verdicts.len(), 2);
    for v in verdicts {
        assert!(v.get("holds").and_then(Json::as_bool).is_some());
        assert!(v.get("marginal").and_then(Json::as_bool).is_some());
        let estimates = v.get("estimates").and_then(Json::as_arr).unwrap();
        assert!(!estimates.is_empty(), "every verdict carries estimates");
        for e in estimates {
            let mean = e.get("mean").and_then(Json::as_f64).unwrap();
            let lo = e.get("lo").and_then(Json::as_f64).unwrap();
            let hi = e.get("hi").and_then(Json::as_f64).unwrap();
            assert!(
                lo <= mean && mean <= hi,
                "CI [{lo}, {hi}] must cover {mean}"
            );
            assert_eq!(e.get("n").and_then(Json::as_f64), Some(60.0));
        }
    }

    // Same request again: warm hit, and (fixed seed stream) bitwise
    // identical verdicts — replaying a batch must not re-sample.
    let warm = post_raw(&addr, SIMULATE_BODY);
    assert_eq!(warm.status, 200);
    let warm_body = Json::parse(&warm.text()).unwrap();
    assert_eq!(warm_body.get("warm").and_then(Json::as_bool), Some(true));
    assert_eq!(
        Json::Arr(verdicts.to_vec()).render(),
        Json::Arr(
            warm_body
                .get("verdicts")
                .and_then(Json::as_arr)
                .unwrap()
                .to_vec()
        )
        .render(),
        "warm simulate replay must be bitwise identical"
    );

    // The same model checked without a mode is a mean-field request: it
    // must cold-start its own session, not alias the simulated one.
    let meanfield = post_raw(
        &addr,
        "{\"model\":\"virus\",\"m0\":[0.8,0.15,0.05],\"formulas\":[\"E{<0.6}[ infected ]\"]}",
    );
    assert_eq!(meanfield.status, 200, "{}", meanfield.text());
    let mf_body = Json::parse(&meanfield.text()).unwrap();
    assert_eq!(
        mf_body.get("warm").and_then(Json::as_bool),
        Some(false),
        "a mean-field request must never hit a simulated session"
    );
    assert!(mf_body.get("mode").is_none());

    // A different seed is a different simulated session.
    let reseeded = post_raw(&addr, &SIMULATE_BODY.replace("\"seed\":7", "\"seed\":8"));
    assert_eq!(reseeded.status, 200);
    let re_body = Json::parse(&reseeded.text()).unwrap();
    assert_eq!(re_body.get("warm").and_then(Json::as_bool), Some(false));

    let metrics = client::get_text(&addr, "/metrics").unwrap();
    assert!(
        metrics.contains("mfcsld_simulate_requests_total 3"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mfcsld_simulate_replications_total 180"),
        "{metrics}"
    );

    client::shutdown(&addr).unwrap();
    handle.join().unwrap();
}

#[test]
fn simulate_requests_validate_fields_and_reject_unknown_fields() {
    let (addr, handle) = start_daemon(ServerConfig::default());

    let expect_bad = |body: &str, needle: &str| {
        let response = post_raw(&addr, body);
        assert_eq!(response.status, 400, "{}", response.text());
        let parsed = Json::parse(&response.text()).unwrap();
        assert_eq!(
            parsed.get("code").and_then(Json::as_str),
            Some("bad_request")
        );
        let message = parsed
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert!(
            message.contains(needle),
            "`{message}` should mention `{needle}`"
        );
    };

    // Satellite: a typo'd top-level field fails loudly, naming the field.
    expect_bad(
        &SIMULATE_BODY.replace("\"population\"", "\"poplation\""),
        "unknown request field `poplation`",
    );
    // Simulation knobs without the mode would silently answer the wrong
    // question; they are rejected instead.
    expect_bad(
        "{\"model\":\"virus\",\"m0\":[0.8,0.15,0.05],\"formulas\":[\"tt\"],\"population\":50}",
        "`population` requires \"mode\": \"simulate\"",
    );
    expect_bad(
        &SIMULATE_BODY.replace("\"simulate\"", "\"bogus\""),
        "`mode` must be \"meanfield\" or \"simulate\"",
    );
    expect_bad(
        &SIMULATE_BODY.replace("\"replications\":60", "\"replications\":-3"),
        "`replications` must be a non-negative integer",
    );

    // Prewarm rejects unknown fields with the same shape.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let prewarm = roundtrip(
        &mut stream,
        "POST",
        "/v1/prewarm",
        b"{\"model\":\"virus\",\"m0s\":[[0.8,0.15,0.05]],\"horizon\":2.0,\"mode\":\"simulate\"}",
    )
    .unwrap();
    assert_eq!(prewarm.status, 400);
    assert!(
        prewarm.text().contains("unknown request field `mode`"),
        "{}",
        prewarm.text()
    );

    client::shutdown(&addr).unwrap();
    handle.join().unwrap();
}

#[test]
fn simulate_sessions_are_never_snapshotted() {
    let dir = std::env::temp_dir().join(format!("mfcsld-test-sim-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle) = start_daemon(ServerConfig {
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });

    // One simulated session and one mean-field session, then drain.
    assert_eq!(post_raw(&addr, SIMULATE_BODY).status, 200);
    let meanfield = post_raw(
        &addr,
        "{\"model\":\"virus\",\"m0\":[0.8,0.15,0.05],\"formulas\":[\"E{<0.6}[ infected ]\"]}",
    );
    assert_eq!(meanfield.status, 200);
    client::shutdown(&addr).unwrap();
    handle.join().unwrap();

    let snaps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "snap"))
        .collect();
    assert_eq!(
        snaps.len(),
        1,
        "drain must persist the mean-field session and skip the simulated one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
