//! End-to-end tests of the `mfcsl` binary: real process invocations over
//! the shipped model files, covering argument parsing and every
//! subcommand.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mfcsl"))
}

fn modelfile(name: &str) -> String {
    // The workspace root is two levels above this crate.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../modelfiles")
        .join(name);
    path.to_str().expect("utf-8 path").to_string()
}

fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "command {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn run_err(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        !out.status.success(),
        "command {args:?} unexpectedly succeeded"
    );
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

#[test]
fn check_the_papers_example() {
    let out = run_ok(&[
        "check",
        &modelfile("virus.mf"),
        "--m0",
        "0.8,0.15,0.05",
        "EP{<0.3}[ not_infected U[0,1] infected ]",
    ]);
    assert!(out.contains('⊨'), "{out}");
}

#[test]
fn check_fast_flag() {
    let out = run_ok(&[
        "check",
        &modelfile("sis.mf"),
        "--m0",
        "0.9,0.1",
        "--fast",
        "E{<0.2}[ infected ]",
    ]);
    assert!(out.contains("fast tolerances"), "{out}");
}

#[test]
fn check_many_formulas_with_stats() {
    let out = run_ok(&[
        "check",
        &modelfile("sis.mf"),
        "--m0",
        "0.9,0.1",
        "--stats",
        "E{<0.2}[ infected ]",
        "EP{>0}[ tt U[0,2] infected ]",
        "ES{>0.45}[ infected ]",
    ]);
    assert_eq!(out.matches('⊨').count(), 3, "{out}");
    assert!(out.contains("engine statistics:"), "{out}");
    // One session for the whole invocation: a single mean-field solve.
    assert!(out.contains("trajectories: 1 solved, 0 extended"), "{out}");
    assert!(out.contains("rhs evals"), "{out}");
}

#[test]
fn csat_reports_the_logistic_crossing() {
    let out = run_ok(&[
        "csat",
        &modelfile("sis.mf"),
        "--m0",
        "0.9,0.1",
        "--theta",
        "12",
        "E{<0.3}[ infected ]",
    ]);
    // ln 6 ≈ 1.7917 appears as the window end.
    assert!(out.contains("1.7917"), "{out}");
}

#[test]
fn trajectory_emits_csv() {
    let out = run_ok(&[
        "trajectory",
        &modelfile("sis.mf"),
        "--m0",
        "0.9,0.1",
        "--t-end",
        "5",
        "--points",
        "6",
    ]);
    let lines: Vec<&str> = out.trim().lines().collect();
    assert_eq!(lines[0], "t,s,i");
    assert_eq!(lines.len(), 7);
}

#[test]
fn info_and_fixed_points() {
    let out = run_ok(&["info", &modelfile("botnet.mf")]);
    assert!(out.contains("states (3):"), "{out}");
    assert!(out.contains("infect = 4"), "{out}");
    let out = run_ok(&["fixed-points", &modelfile("botnet.mf")]);
    assert!(out.contains("Stable"), "{out}");
}

#[test]
fn error_paths() {
    // Unknown command.
    let err = run_err(&["frobnicate", &modelfile("sis.mf")]);
    assert!(err.contains("unknown command"), "{err}");
    // Missing model file.
    let err = run_err(&["info", "does/not/exist.mf"]);
    assert!(err.contains("cannot read"), "{err}");
    // Missing required flag.
    let err = run_err(&["check", &modelfile("sis.mf"), "E{<0.5}[ infected ]"]);
    assert!(err.contains("--m0 is required"), "{err}");
    // Bad occupancy.
    let err = run_err(&[
        "check",
        &modelfile("sis.mf"),
        "--m0",
        "0.5,0.6",
        "E{<0.5}[ infected ]",
    ]);
    assert!(err.contains("bad occupancy"), "{err}");
    // Bad formula.
    let err = run_err(&["check", &modelfile("sis.mf"), "--m0", "0.9,0.1", "E{<0.5}["]);
    assert!(err.contains("error"), "{err}");
    // Unknown flag.
    let err = run_err(&[
        "check",
        &modelfile("sis.mf"),
        "--m0",
        "0.9,0.1",
        "--bogus",
        "E{<0.5}[ infected ]",
    ]);
    assert!(err.contains("unknown flag"), "{err}");
    // No arguments at all prints usage.
    let err = run_err(&[]);
    assert!(err.contains("USAGE"), "{err}");
}

/// A hardened argument error: exactly one stderr line, nonzero exit.
fn one_line_err(args: &[&str]) -> String {
    let err = run_err(args);
    assert_eq!(
        err.trim_end().lines().count(),
        1,
        "one line expected:\n{err}"
    );
    err
}

#[test]
fn malformed_arguments_die_with_one_line() {
    let sis = modelfile("sis.mf");
    // Off-simplex occupancies.
    let err = one_line_err(&["check", &sis, "--m0", "0.5,0.6", "E{<0.5}[ infected ]"]);
    assert!(err.contains("bad occupancy"), "{err}");
    let err = one_line_err(&["check", &sis, "--m0", "1.5,-0.5", "E{<0.5}[ infected ]"]);
    assert!(err.contains("bad occupancy"), "{err}");
    // A zero thread count.
    let err = one_line_err(&["check", &sis, "--m0", "0.9,0.1", "--threads", "0", "f"]);
    assert!(err.contains("--threads must be at least 1"), "{err}");
    // Malformed time windows: nonpositive, non-finite, non-numeric.
    for bad in ["0", "-2", "nan", "inf", "abc"] {
        let err = one_line_err(&["csat", &sis, "--m0", "0.9,0.1", "--theta", bad, "f"]);
        assert!(err.contains("--theta"), "{bad}: {err}");
        let err = one_line_err(&["trajectory", &sis, "--m0", "0.9,0.1", "--t-end", bad]);
        assert!(err.contains("--t-end"), "{bad}: {err}");
    }
}

/// Kills the daemon if the test panics before the clean shutdown, so a
/// failed assertion cannot leak an orphan process holding the test's
/// output pipes open.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `mfcsl serve` over the shipped model files on an ephemeral port
/// and parses the address from its announcement line.
fn start_daemon(extra: &[&str]) -> (KillOnDrop, String) {
    use std::io::BufRead as _;

    let model_dir = modelfile("");
    let mut daemon = KillOnDrop(
        bin()
            .args([
                "serve",
                &model_dir,
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
            ])
            .args(extra)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("daemon starts"),
    );
    let mut announcement = String::new();
    std::io::BufReader::new(daemon.0.stdout.as_mut().expect("piped stdout"))
        .read_line(&mut announcement)
        .expect("announcement line");
    assert!(
        announcement.contains("mfcsld listening on"),
        "{announcement}"
    );
    let addr = announcement
        .split_whitespace()
        .nth(3)
        .expect("address in announcement")
        .to_string();
    (daemon, addr)
}

#[test]
fn serve_and_client_match_offline_check() {
    let m0 = "0.8,0.15,0.05";
    let formulas = [
        "EP{<0.3}[ not_infected U[0,1] infected ]",
        "E{<0.3}[ infected ]",
        "ES{>0.1}[ infected ]",
    ];

    // The offline reference output.
    let virus = modelfile("virus.mf");
    let mut offline_args = vec!["check", virus.as_str(), "--m0", m0];
    offline_args.extend_from_slice(&formulas);
    let offline = run_ok(&offline_args);

    let (mut daemon, addr) = start_daemon(&[]);

    // The served verdict lines are bitwise identical to the offline run.
    let mut client_args = vec!["client", &addr, "check", "virus", "--m0", m0];
    client_args.extend_from_slice(&formulas);
    let served = run_ok(&client_args);
    assert_eq!(served, offline, "daemon output must match offline check");

    // Maintenance endpoints work through the CLI, and the second check was
    // answered by the warm session.
    let served_again = run_ok(&client_args);
    assert_eq!(served_again, offline);
    let metrics = run_ok(&["client", &addr, "metrics"]);
    assert!(
        metrics.contains("mfcsld_session_warm_hits_total 1"),
        "{metrics}"
    );
    let health = run_ok(&["client", &addr, "health"]);
    assert!(health.contains("ok"), "{health}");

    // Unknown models come back as a clean one-line error.
    let err = one_line_err(&["client", &addr, "check", "ghost", "--m0", m0, "f"]);
    assert!(err.contains("unknown model `ghost`"), "{err}");

    // Drain and stop; the daemon process exits cleanly.
    let out = run_ok(&["client", &addr, "shutdown"]);
    assert!(out.contains("draining"), "{out}");
    let status = daemon.0.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status {status:?}");
}

/// The value of one `/metrics` line.
fn metric(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

#[test]
fn sigkilled_daemon_restarts_warm_from_its_state_dir() {
    use mfcsl_serve::client::{self, CheckRequest};

    let state_dir = std::env::temp_dir().join(format!("mfcsl-e2e-sigkill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let state_arg = state_dir.to_str().expect("utf-8 path");
    let request = CheckRequest::new(
        "virus",
        &[0.8, 0.15, 0.05],
        &[
            "EP{<0.3}[ not_infected U[0,1] infected ]".to_string(),
            "ES{>0.1}[ infected ]".to_string(),
        ],
    );

    // Warm one key. The write-behind snapshot is on disk before the first
    // response is sent, so no drain is needed for it to survive.
    let (mut daemon, addr) = start_daemon(&["--state-dir", state_arg]);
    assert!(!client::post_check(&addr, &request).unwrap().warm);
    let before = client::post_check(&addr, &request).unwrap();
    assert!(before.warm);

    // SIGKILL: no `/shutdown`, so nothing is persisted on the way down.
    daemon.0.kill().expect("SIGKILL the daemon");
    daemon.0.wait().expect("reap the daemon");

    // The restarted daemon answers its first request warm, with zero
    // fresh trajectory solves and the pre-crash verdicts.
    let (_daemon, addr) = start_daemon(&["--state-dir", state_arg]);
    let after = client::post_check(&addr, &request).unwrap();
    assert!(after.warm, "restart must restore the eager snapshot");
    assert_eq!(after.verdicts, before.verdicts);
    let metrics = client::get_text(&addr, "/metrics").unwrap();
    assert_eq!(
        metric(&metrics, "mfcsld_snapshot_loaded_total"),
        Some(1.0),
        "{metrics}"
    );
    assert_eq!(
        metric(&metrics, "mfcsld_engine_trajectory_solves_total"),
        Some(0.0),
        "{metrics}"
    );
    let _ = std::fs::remove_dir_all(&state_dir);
}
