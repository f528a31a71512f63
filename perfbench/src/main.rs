//! `benchmark`: one seeded benchmark for the MF-CSL checker and its
//! serving daemon.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--trace-out <file>] [--corrupt-reference]
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics, with `--trace 1`
//! the per-layer ones (see `report.rs` and `README.md`). The last line of
//! standard output is the result: `{"correct", "attempted", "failed",
//! "metrics"}`. A wrong output makes the run exit 1; a run that cannot
//! complete exits 2 without a result line. `--corrupt-reference` flips the
//! reference the outputs are checked against, to show that the checks
//! bite.
//!
//! `benchmark daemon serve …` runs the `mfcsl serve` command (the same
//! `mfcsl_cli` calls as the `mfcsl` binary); the serve workloads spawn it
//! as their daemon.

mod alloc;
mod check;
mod daemon;
mod inputs;
mod loadgen;
mod lumped;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::TrackingAlloc = alloc::TrackingAlloc;

pub const WORKLOADS: [&str; 5] = [
    "serve_hot",
    "serve_mixed",
    "check_virus",
    "check_queue",
    "lumped_exact",
];

/// Set-ups before each pass of an untraced in-process run; `setup_s` is
/// the median over the run. Each pass runs on a fresh set-up: how a
/// pool's threads land on the cores lasts as long as the pool and sets its
/// speed, and a busy stretch of the host then decides one pass's set-ups,
/// not all of them.
pub const SETUPS_PER_PASS: usize = 2;

/// A run's settings.
pub struct RunArgs {
    pub workload: &'static str,
    pub seed: u64,
    /// Nominal length of the measured phase; sizes the fixed op counts.
    /// Sizing uses fixed nominal rates, never the clock, so every run at
    /// one seed does the same work.
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    /// The model files the daemon serves (the repository's `modelfiles/`).
    pub models: PathBuf,
    /// Threads for pools and load generation: the machine's parallelism.
    pub nproc: usize,
    pub corrupt_reference: bool,
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut trace_out = None;
    let mut corrupt_reference = false;
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == name)
                        .ok_or_else(|| format!("unknown workload {name}; one of {WORKLOADS:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--corrupt-reference" => {
                corrupt_reference = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    // The repository's model files: from the checkout root, where the
    // benchmark command runs, or next to this package (`cargo test`).
    let local = PathBuf::from("modelfiles");
    let models = if local.is_dir() {
        local
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../modelfiles")
    };
    if !models.is_dir() {
        return Err(format!("model directory {} not found", models.display()));
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
        models,
        nproc: mfcsl_pool::default_parallelism(),
        corrupt_reference,
    })
}

/// Short git revision of the working directory, or `unknown`.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("daemon") {
        // The serve workloads' daemon: `mfcsl serve`, as the `mfcsl`
        // binary runs it. Its peak live heap goes to the parent on exit.
        alloc::start_sampler();
        let rest = argv.get(2..).unwrap_or_default();
        return match mfcsl_cli::args::parse_serve(rest).and_then(mfcsl_cli::commands::serve) {
            Ok(out) => {
                print!("{out}");
                println!("{} {}", daemon::PEAK_HEAP_LINE, alloc::peak());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    alloc::start_sampler();
    println!(
        "# benchmark rev {} nproc {} workload {} seed {} seconds {} trace {}",
        git_revision(),
        args.nproc,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = match args.workload {
        "serve_hot" | "serve_mixed" => serve::run(&args),
        "check_virus" | "check_queue" => check::run(&args),
        _ => lumped::run(&args),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    match report::result_line(&outcome, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: outputs differ from their references");
        ExitCode::FAILURE
    }
}
