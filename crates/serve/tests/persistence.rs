//! End-to-end tests for warm-state persistence (snapshot round-trips,
//! corrupt-snapshot rejection) and keep-alive connection reuse — all over
//! real sockets on the epoll serving core.

use std::path::PathBuf;

use mfcsl_serve::client::{self, CheckRequest, Client};
use mfcsl_serve::snapshot::fnv1a64;
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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mfcsld-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn metric_value(metrics: &str, name: &str) -> Option<f64> {
    metrics.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next() == Some(name))
            .then(|| parts.next())?
            .and_then(|v| v.parse().ok())
    })
}

const VIRUS_M0: [f64; 3] = [0.8, 0.15, 0.05];

fn virus_formulas() -> Vec<String> {
    [
        "E{<0.3}[ infected ]",
        "EP{>0}[ tt U[0,2] infected ]",
        "ES{>0.1}[ infected ]",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect()
}

#[test]
fn snapshot_round_trip_restores_warm_sessions_across_restarts() {
    let dir = temp_dir("snap");
    let config = || ServerConfig {
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    // First life: cold check, then graceful drain (write-on-drain).
    let (addr, handle) = start_daemon(config());
    let request = CheckRequest::new("virus", &VIRUS_M0, &virus_formulas());
    let cold = client::post_check(&addr, &request).unwrap();
    assert!(!cold.warm, "fresh state dir must not be warm");
    client::shutdown(&addr).unwrap();
    handle.join().unwrap();

    let snaps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "snap"))
        .collect();
    assert_eq!(snaps.len(), 1, "drain must persist the one warm session");

    // Second life, same state dir: the very first request must be warm and
    // bitwise identical to the first life's verdicts.
    let (addr, handle) = start_daemon(config());
    let restored = client::post_check(&addr, &request).unwrap();
    assert!(
        restored.warm,
        "first request after a restart with --state-dir must hit a warm session"
    );
    assert_eq!(
        restored.verdicts, cold.verdicts,
        "restored verdicts must be bitwise identical"
    );
    let metrics = client::get_text(&addr, "/metrics").unwrap();
    assert_eq!(
        metric_value(&metrics, "mfcsld_snapshot_loaded_total"),
        Some(1.0),
        "{metrics}"
    );
    assert_eq!(
        metric_value(&metrics, "mfcsld_snapshot_rejected_total"),
        Some(0.0),
        "{metrics}"
    );
    // The v2 snapshot restores the trajectory, the stationary regime, and
    // the sat-cache, so the restored first request (E + EP + ES formulas)
    // pays no fresh solve of any kind.
    assert_eq!(
        metric_value(&metrics, "mfcsld_engine_trajectory_solves_total"),
        Some(0.0),
        "restored trajectory must prevent a fresh solve\n{metrics}"
    );
    assert_eq!(
        metric_value(&metrics, "mfcsld_engine_regime_solves_total"),
        Some(0.0),
        "restored regime must prevent a fixed-point recompute\n{metrics}"
    );
    assert_eq!(
        metric_value(&metrics, "mfcsld_engine_trajectory_restores_total"),
        Some(1.0),
        "{metrics}"
    );
    assert!(
        metric_value(&metrics, "mfcsld_snapshot_saved_total").unwrap_or(0.0) >= 0.0,
        "{metrics}"
    );
    client::shutdown(&addr).unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshots_are_rejected_and_counted_not_trusted() {
    let dir = temp_dir("snap-corrupt");
    let config = || ServerConfig {
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    // Produce one valid snapshot.
    let (addr, handle) = start_daemon(config());
    let request = CheckRequest::new("virus", &VIRUS_M0, &virus_formulas());
    let cold = client::post_check(&addr, &request).unwrap();
    client::shutdown(&addr).unwrap();
    handle.join().unwrap();
    let valid_path = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "snap"))
        .expect("one valid snapshot");
    let valid = std::fs::read(&valid_path).unwrap();

    // Corrupt: one bit flipped mid-payload (checksum must catch it).
    let mut corrupt = valid.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x01;
    std::fs::write(dir.join("sess-0000000000000001.snap"), &corrupt).unwrap();
    // Truncated: torn mid-write.
    std::fs::write(
        dir.join("sess-0000000000000002.snap"),
        &valid[..valid.len() / 3],
    )
    .unwrap();
    // Wrong schema version, with a recomputed (valid) checksum: the version
    // gate must fire even when the bytes are internally consistent.
    let mut wrong_version = valid.clone();
    wrong_version[4..8].copy_from_slice(&99u32.to_le_bytes());
    let body_len = wrong_version.len() - 8;
    let checksum = fnv1a64(&wrong_version[..body_len]);
    wrong_version[body_len..].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(dir.join("sess-0000000000000003.snap"), &wrong_version).unwrap();

    // Restart: the valid file loads, all three forgeries are rejected.
    let (addr, handle) = start_daemon(config());
    let metrics = client::get_text(&addr, "/metrics").unwrap();
    assert_eq!(
        metric_value(&metrics, "mfcsld_snapshot_loaded_total"),
        Some(1.0),
        "{metrics}"
    );
    assert_eq!(
        metric_value(&metrics, "mfcsld_snapshot_rejected_total"),
        Some(3.0),
        "{metrics}"
    );
    // The daemon still serves, warm, with identical verdicts.
    let restored = client::post_check(&addr, &request).unwrap();
    assert!(restored.warm);
    assert_eq!(restored.verdicts, cold.verdicts);
    client::shutdown(&addr).unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn keepalive_client_reuses_one_connection_for_many_requests() {
    let (addr, handle) = start_daemon(ServerConfig::default());
    let mut keep = Client::new(&addr);
    let request = CheckRequest::new("virus", &VIRUS_M0, &virus_formulas());
    let first = keep.check(&request).unwrap();
    for _ in 0..9 {
        let warm = keep.check(&request).unwrap();
        assert!(warm.warm);
        assert_eq!(warm.verdicts, first.verdicts);
    }
    assert!(
        keep.is_connected(),
        "keep-alive connection must survive the loop"
    );
    let metrics = keep.get_text("/metrics").unwrap();
    let connections = metric_value(&metrics, "mfcsld_connections_total").unwrap();
    let completed = metric_value(&metrics, "mfcsld_requests_completed_total").unwrap();
    assert_eq!(completed, 10.0, "{metrics}");
    assert!(
        connections < completed,
        "keep-alive must make connections ({connections}) < requests ({completed})"
    );
    assert_eq!(connections, 1.0, "one client, one connection\n{metrics}");
    client::shutdown(&addr).unwrap();
    handle.join().unwrap();
}
