//! Load benchmark of the `mfcsld` serving layer: writes
//! `BENCH_serve.json` at the repo root.
//!
//! Three workloads, plus a snapshot-restart probe:
//!
//! * **cold** — sequential requests that each carry a distinct parameter
//!   override, so every one misses the session store and pays the full
//!   session build (model instantiation + mean-field solve). This is the
//!   worst-case per-request latency. Sized so the p99 rank is resolvable
//!   (see `tail_resolved`).
//! * **warm** — a closed-loop fleet of concurrent clients hammering one
//!   `(model, params, tolerances)` session key over one connection per
//!   request (the historical baseline shape, kept for comparability with
//!   older committed reports).
//! * **warm_keepalive** — ≥1000 simulated keep-alive clients (a few OS
//!   threads each round-robining hundreds of [`Client`]s, so every client
//!   holds its own live connection) with a mixed key population: ~90% of
//!   requests hit the shared hot key, the rest spread over tenant keys
//!   that start cold and warm up mid-run. The report records how many
//!   server-side connections the run opened; keep-alive demands
//!   connections ≪ requests.
//!
//! **snapshot_restart** — a daemon with `--state-dir` serves a key warm,
//! drains (persisting the session), restarts on the same directory, and
//! the probe times the very first request of the second life: it must be
//! warm, bitwise identical, and within 5x the first life's warm p50.
//!
//! Every workload asserts bitwise identity of responses against its
//! reference. The report is stamped with the git revision and the
//! machine's available parallelism; `--serve-baseline <path>` gates this
//! run against a previous report (throughput >= 0.75x, p99 <= 1.25x) and
//! refuses cross-core-count comparisons outright.
//!
//! Usage: `cargo run --release -p mfcsl-bench --bin bench_serve --
//! [--smoke] [--out <path>] [--models <dir>] [--serve-baseline <path>]`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mfcsl_serve::{client, CheckRequest, Client, Json, ModelRegistry, Server, ServerConfig};

struct ServeWorkload {
    name: &'static str,
    description: String,
    requests: usize,
    concurrency: usize,
    wall_seconds: f64,
    /// Sorted client-observed latencies in microseconds.
    latencies_us: Vec<u64>,
    bitwise_equal: bool,
    /// Server-side connections the workload opened (keep-alive workloads
    /// only): must stay far below `requests`.
    connections: Option<u64>,
}

impl ServeWorkload {
    fn throughput_rps(&self) -> f64 {
        self.requests as f64 / self.wall_seconds
    }
}

/// Nearest-rank percentile of a sorted latency list.
fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether the tail quantile `q` is resolvable at this sample count: the
/// nearest-rank p99 of 12 samples is just the max (and equals p95), which
/// is how a report ends up with degenerate `p95 == p99` columns. The
/// report carries this flag so consumers (and the regression gate) know
/// when the tail is real.
fn tail_resolved(samples: usize, q: f64) -> bool {
    samples as f64 * (1.0 - q) >= 1.0
}

struct SnapshotRestart {
    warm_p50_us: u64,
    first_request_us: u64,
    within_5x_warm_p50: bool,
    warm: bool,
    bitwise_equal: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let models_dir = flag("--models")
        .map(PathBuf::from)
        .unwrap_or_else(default_models_dir);
    let baseline_path = flag("--serve-baseline");

    let workers = mfcsl_pool::default_parallelism().max(2);
    let server = Server::bind(
        load_registry(&models_dir),
        ServerConfig {
            workers,
            queue_capacity: 1024,
            max_sessions: 512,
            ..ServerConfig::default()
        },
    )
    .expect("daemon binds");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    // (cold, warm fleet x per-client, keep-alive threads x clients x
    // rounds over `tenants` cold-start keys, snapshot warm probes)
    let (cold_n, fleet, per_client, ka, tenants, probes) = if smoke {
        (8, 4, 5, (4, 32, 2), 16, 5)
    } else {
        (120, 8, 25, (8, 128, 4), 64, 20)
    };
    let (ka_threads, ka_clients, ka_rounds) = ka;

    let workloads = vec![
        cold_workload(&addr, cold_n),
        warm_workload(&addr, fleet, per_client),
        keepalive_workload(&addr, ka_threads, ka_clients, ka_rounds, tenants),
    ];
    client::shutdown(&addr).expect("daemon drains");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");

    let restart = snapshot_restart_probe(&models_dir, probes);

    let json = render_json(&workloads, &restart, workers, smoke);
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("report written to {out_path}");
    for w in &workloads {
        println!(
            "{:<15} requests={:<5} concurrency={:<5} wall={:.4}s  rps={:.1}  \
             p50={}us p95={}us p99={}us{}  bitwise_equal={}",
            w.name,
            w.requests,
            w.concurrency,
            w.wall_seconds,
            w.throughput_rps(),
            percentile_us(&w.latencies_us, 0.50),
            percentile_us(&w.latencies_us, 0.95),
            percentile_us(&w.latencies_us, 0.99),
            w.connections
                .map(|c| format!("  connections={c}"))
                .unwrap_or_default(),
            w.bitwise_equal
        );
    }
    println!(
        "snapshot_restart warm_p50={}us first_request={}us within_5x={} warm={} bitwise_equal={}",
        restart.warm_p50_us,
        restart.first_request_us,
        restart.within_5x_warm_p50,
        restart.warm,
        restart.bitwise_equal
    );

    if let Some(path) = baseline_path {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read serve baseline {path}: {e}"));
        if !serve_gate(&json, &baseline) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `modelfiles/` under the working directory if it exists (running from
/// the repo root), otherwise resolved from this crate's source location.
fn default_models_dir() -> PathBuf {
    let cwd = PathBuf::from("modelfiles");
    if cwd.is_dir() {
        cwd
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../modelfiles")
    }
}

fn load_registry(models_dir: &PathBuf) -> ModelRegistry {
    ModelRegistry::load(std::slice::from_ref(models_dir)).expect("models load")
}

/// The request batch every workload checks: the paper's virus model under
/// a mixed batch of formula kinds (time-bounded path, expectation,
/// steady-state).
fn virus_request() -> CheckRequest {
    CheckRequest::new(
        "virus",
        &[0.8, 0.15, 0.05],
        &[
            "EP{<0.3}[ not_infected U[0,1] infected ]".to_string(),
            "E{<0.3}[ infected ]".to_string(),
            "ES{>0.1}[ infected ]".to_string(),
        ],
    )
}

/// A tenant key: the hot-key batch under a per-tenant `k2` override, so
/// each tenant owns its own warm session.
fn tenant_request(tenant: usize) -> CheckRequest {
    let mut req = virus_request();
    req.params
        .insert("k2".to_string(), 0.3 + tenant as f64 * 0.005);
    req
}

/// Sequential requests, each with a unique `k2` override: a forced session
/// miss per request.
fn cold_workload(addr: &str, n: usize) -> ServeWorkload {
    let mut latencies_us = Vec::with_capacity(n);
    let start = Instant::now();
    for i in 0..n {
        let mut req = virus_request();
        // Perturb a rate parameter just enough to change the session key.
        req.params
            .insert("k2".to_string(), 0.1 + (i + 1) as f64 * 1e-6);
        let t0 = Instant::now();
        let outcome = client::post_check(addr, &req).expect("cold request");
        latencies_us.push(t0.elapsed().as_micros() as u64);
        assert!(
            !outcome.warm,
            "override {i} unexpectedly hit a warm session"
        );
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    latencies_us.sort_unstable();
    ServeWorkload {
        name: "cold",
        description: format!(
            "{n} sequential checks of a 3-formula batch on the virus model, each with a \
             distinct k2 override forcing a fresh session (full model build + mean-field solve)"
        ),
        requests: n,
        concurrency: 1,
        wall_seconds,
        latencies_us,
        bitwise_equal: true,
        connections: None,
    }
}

/// A closed-loop fleet on one session key, one connection per request (the
/// committed blocking-core baseline shape); all responses must be bitwise
/// identical to the warm-up reference.
fn warm_workload(addr: &str, fleet: usize, per_client: usize) -> ServeWorkload {
    let reference = client::post_check(addr, &virus_request()).expect("warm-up request");
    let start = Instant::now();
    let handles: Vec<_> = (0..fleet)
        .map(|_| {
            let addr = addr.to_string();
            let reference = reference.verdicts.clone();
            std::thread::spawn(move || {
                let mut lats = Vec::with_capacity(per_client);
                let mut identical = true;
                for _ in 0..per_client {
                    let t0 = Instant::now();
                    let outcome =
                        client::post_check(&addr, &virus_request()).expect("warm request");
                    lats.push(t0.elapsed().as_micros() as u64);
                    identical &= outcome.warm && outcome.verdicts == reference;
                }
                (lats, identical)
            })
        })
        .collect();
    let mut latencies_us = Vec::with_capacity(fleet * per_client);
    let mut bitwise_equal = true;
    for h in handles {
        let (lats, identical) = h.join().expect("client thread");
        latencies_us.extend(lats);
        bitwise_equal &= identical;
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    latencies_us.sort_unstable();
    ServeWorkload {
        name: "warm",
        description: format!(
            "{fleet} concurrent closed-loop clients x {per_client} checks of the same \
             3-formula virus batch on one session key, one connection per request \
             (blocking-core baseline shape)"
        ),
        requests: fleet * per_client,
        concurrency: fleet,
        wall_seconds,
        latencies_us,
        bitwise_equal,
        connections: None,
    }
}

fn connections_total(addr: &str) -> u64 {
    let metrics = client::get_text(addr, "/metrics").expect("metrics fetch");
    metrics
        .lines()
        .find_map(|line| {
            let mut parts = line.split_whitespace();
            (parts.next() == Some("mfcsld_connections_total"))
                .then(|| parts.next())?
                .and_then(|v| v.parse().ok())
        })
        .expect("connections counter present")
}

/// `threads x clients` keep-alive [`Client`]s (each holding its own live
/// connection) round-robined by a few OS threads; ~90% of requests hit
/// the shared hot key, the rest a per-client tenant key from a pool of
/// `tenants` (cold on first touch, warm after). All hot-key responses
/// must be bitwise identical to the reference, and the run must open far
/// fewer server-side connections than it sends requests.
fn keepalive_workload(
    addr: &str,
    threads: usize,
    clients_per_thread: usize,
    rounds: usize,
    tenants: usize,
) -> ServeWorkload {
    let reference = client::post_check(addr, &virus_request()).expect("warm-up request");
    let before = connections_total(addr);
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let addr = addr.to_string();
            let reference = reference.verdicts.clone();
            std::thread::spawn(move || {
                let mut clients: Vec<Client> = (0..clients_per_thread)
                    .map(|_| Client::new(&addr))
                    .collect();
                let mut lats = Vec::with_capacity(clients_per_thread * rounds);
                let mut identical = true;
                let mut still_connected = true;
                for round in 0..rounds {
                    for (i, keep) in clients.iter_mut().enumerate() {
                        let global = t * clients_per_thread + i;
                        // Deterministic 1-in-10 mix of tenant keys.
                        let hot = !(global + round).is_multiple_of(10);
                        let req = if hot {
                            virus_request()
                        } else {
                            tenant_request(global % tenants)
                        };
                        let t0 = Instant::now();
                        let outcome = keep.check(&req).expect("keep-alive request");
                        lats.push(t0.elapsed().as_micros() as u64);
                        if hot {
                            identical &= outcome.warm && outcome.verdicts == reference;
                        } else {
                            identical &= !outcome.verdicts.is_empty();
                        }
                    }
                }
                still_connected &= clients.iter().all(Client::is_connected);
                (lats, identical, still_connected)
            })
        })
        .collect();
    let mut latencies_us = Vec::with_capacity(threads * clients_per_thread * rounds);
    let mut bitwise_equal = true;
    for h in handles {
        let (lats, identical, still_connected) = h.join().expect("keep-alive thread");
        latencies_us.extend(lats);
        bitwise_equal &= identical;
        assert!(
            still_connected,
            "a keep-alive client lost its connection mid-run"
        );
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    let connections = connections_total(addr) - before;
    let requests = threads * clients_per_thread * rounds;
    assert!(
        connections < requests as u64,
        "keep-alive must reuse connections: {connections} connections for {requests} requests"
    );
    latencies_us.sort_unstable();
    ServeWorkload {
        name: "warm_keepalive",
        description: format!(
            "{} keep-alive clients ({threads} threads x {clients_per_thread} connections) x \
             {rounds} rounds; ~90% of requests on the shared hot key, the rest on {tenants} \
             tenant keys that start cold and warm up mid-run",
            threads * clients_per_thread
        ),
        requests,
        concurrency: threads * clients_per_thread,
        wall_seconds,
        latencies_us,
        bitwise_equal,
        connections: Some(connections),
    }
}

/// Warm-drain-restart on a `--state-dir`: the second life's first request
/// must hit the restored session (no re-solve) within 5x the first life's
/// warm p50.
fn snapshot_restart_probe(models_dir: &PathBuf, probes: usize) -> SnapshotRestart {
    let dir = std::env::temp_dir().join(format!("mfcsld-bench-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServerConfig {
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    let server = Server::bind(load_registry(models_dir), config()).expect("daemon binds");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    let reference = client::post_check(&addr, &virus_request()).expect("cold request");
    let mut warm_lats: Vec<u64> = (0..probes)
        .map(|_| {
            let t0 = Instant::now();
            let outcome = client::post_check(&addr, &virus_request()).expect("warm probe");
            assert!(outcome.warm);
            t0.elapsed().as_micros() as u64
        })
        .collect();
    warm_lats.sort_unstable();
    let warm_p50_us = percentile_us(&warm_lats, 0.50);
    client::shutdown(&addr).expect("daemon drains");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");

    let server = Server::bind(load_registry(models_dir), config()).expect("daemon rebinds");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    // Untimed transport warm-up: the probe measures what the snapshot
    // saves (the session build + mean-field solve), not first-connection
    // process jitter.
    let _ = client::get_text(&addr, "/healthz").expect("healthz");
    let t0 = Instant::now();
    let first = client::post_check(&addr, &virus_request()).expect("restored request");
    let first_request_us = t0.elapsed().as_micros() as u64;
    client::shutdown(&addr).expect("daemon drains");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);

    SnapshotRestart {
        warm_p50_us,
        first_request_us,
        within_5x_warm_p50: first_request_us <= 5 * warm_p50_us.max(1),
        warm: first.warm,
        bitwise_equal: first.verdicts == reference.verdicts,
    }
}

/// Hand-rolled JSON (the workspace's serde is an offline stub without a
/// serializer).
fn render_json(
    workloads: &[ServeWorkload],
    restart: &SnapshotRestart,
    workers: usize,
    smoke: bool,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"serve\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"git_revision\": \"{}\",", git_revision());
    let _ = writeln!(
        out,
        "  \"threads_available\": {},",
        mfcsl_pool::default_parallelism()
    );
    let _ = writeln!(out, "  \"workers\": {workers},");
    let _ = writeln!(out, "  \"serving_core\": \"epoll\",");
    let _ = writeln!(out, "  \"workloads\": [");
    for (i, w) in workloads.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", w.name);
        let _ = writeln!(out, "      \"description\": \"{}\",", w.description);
        let _ = writeln!(out, "      \"requests\": {},", w.requests);
        let _ = writeln!(out, "      \"concurrency\": {},", w.concurrency);
        let _ = writeln!(out, "      \"wall_seconds\": {:.6},", w.wall_seconds);
        let _ = writeln!(out, "      \"throughput_rps\": {:.4},", w.throughput_rps());
        let _ = writeln!(out, "      \"samples\": {},", w.latencies_us.len());
        let _ = writeln!(
            out,
            "      \"p50_us\": {},",
            percentile_us(&w.latencies_us, 0.50)
        );
        let _ = writeln!(
            out,
            "      \"p95_us\": {},",
            percentile_us(&w.latencies_us, 0.95)
        );
        let _ = writeln!(
            out,
            "      \"p99_us\": {},",
            percentile_us(&w.latencies_us, 0.99)
        );
        let _ = writeln!(
            out,
            "      \"tail_resolved\": {},",
            tail_resolved(w.latencies_us.len(), 0.99)
        );
        if let Some(connections) = w.connections {
            let _ = writeln!(out, "      \"connections\": {connections},");
        }
        let _ = writeln!(out, "      \"bitwise_equal\": {}", w.bitwise_equal);
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 < workloads.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"snapshot_restart\": {{");
    let _ = writeln!(out, "    \"warm_p50_us\": {},", restart.warm_p50_us);
    let _ = writeln!(
        out,
        "    \"first_request_us\": {},",
        restart.first_request_us
    );
    let _ = writeln!(
        out,
        "    \"within_5x_warm_p50\": {},",
        restart.within_5x_warm_p50
    );
    let _ = writeln!(out, "    \"warm\": {},", restart.warm);
    let _ = writeln!(out, "    \"bitwise_equal\": {}", restart.bitwise_equal);
    let _ = writeln!(out, "  }}");
    out.push_str("}\n");
    out
}

/// Gates this run against a previous `BENCH_serve.json`: per workload,
/// throughput must hold >= 0.75x the baseline and (when both tails are
/// resolved) p99 must stay <= 1.25x. Comparisons across machines with
/// different core counts are refused outright — their wall-clock numbers
/// are not commensurable.
fn serve_gate(current_json: &str, baseline_json: &str) -> bool {
    let current = Json::parse(current_json).expect("current report parses");
    let baseline = Json::parse(baseline_json).expect("baseline report parses");
    let threads = |v: &Json| v.get("threads_available").and_then(Json::as_f64);
    let (now, then) = (threads(&current), threads(&baseline));
    if now != then {
        println!(
            "serve gate: REFUSED — baseline ran with threads_available={}, this host has {}; \
             cross-core-count comparisons are not commensurable",
            then.unwrap_or(0.0),
            now.unwrap_or(0.0)
        );
        return false;
    }
    let workload_map = |v: &Json| -> Vec<(String, f64, f64, bool)> {
        v.get("workloads")
            .and_then(Json::as_arr)
            .map(|ws| {
                ws.iter()
                    .filter_map(|w| {
                        Some((
                            w.get("name")?.as_str()?.to_string(),
                            w.get("throughput_rps")?.as_f64()?,
                            w.get("p99_us")?.as_f64()?,
                            w.get("tail_resolved")
                                .and_then(Json::as_bool)
                                .unwrap_or(true),
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let current_ws = workload_map(&current);
    let mut ok = true;
    for (name, base_rps, base_p99, base_tail) in workload_map(&baseline) {
        let Some((_, rps, p99, tail)) = current_ws.iter().find(|(n, ..)| *n == name) else {
            println!("serve gate {name}: SKIP (workload absent from this run)");
            continue;
        };
        let rps_ratio = rps / base_rps;
        let p99_ratio = p99 / base_p99;
        let compare_tail = base_tail && *tail;
        let pass = rps_ratio >= 0.75 && (!compare_tail || p99_ratio <= 1.25);
        println!(
            "serve gate {name}: {} (rps {rps_ratio:.2}x, p99 {p99_ratio:.2}x{})",
            if pass { "PASS" } else { "FAIL" },
            if compare_tail {
                ""
            } else {
                ", tail unresolved — p99 not gated"
            }
        );
        ok &= pass;
    }
    ok
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
