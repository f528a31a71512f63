//! `mfcsl` — the command-line MF-CSL model checker.
//!
//! ```text
//! mfcsl info <model.mf>
//! mfcsl check <model.mf> --m0 0.8,0.15,0.05 "EP{<0.3}[ not_infected U[0,1] infected ]"
//! mfcsl csat <model.mf> --m0 0.8,0.15,0.05 --theta 20 "<formula>"
//! mfcsl trajectory <model.mf> --m0 0.8,0.15,0.05 --t-end 20 [--points 101]
//! mfcsl fixed-points <model.mf>
//! mfcsl serve modelfiles/ --addr 127.0.0.1:7171
//! mfcsl client 127.0.0.1:7171 check virus --m0 0.8,0.15,0.05 "<formula>"
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use mfcsl_cli::args;
use mfcsl_cli::commands::{self, CliError};
use mfcsl_cli::model_file::ModelFile;

/// Counts allocations so `--stats` can report how much heap traffic a
/// check generated (see `mfcsl_math::alloc_counter`); the overhead is a
/// few relaxed atomic updates per allocation.
#[global_allocator]
static GLOBAL: mfcsl_math::alloc_counter::CountingAlloc = mfcsl_math::alloc_counter::CountingAlloc;

const USAGE: &str = "\
mfcsl — MF-CSL model checker for mean-field models

USAGE:
  mfcsl info <model.mf>
  mfcsl check <model.mf> --m0 <fractions> [--fast] [--threads <N>] [--stats] \"<formula>\"...
  mfcsl csat <model.mf> --m0 <fractions> [--m0 <fractions>]... --theta <T> [--threads <N>] [--stats] [--batch-shared] \"<formula>\"...
  mfcsl simulate <model.mf> --m0 <fractions> --population <N> [--reps <R>] [--seed <S>] [--confidence <L>] [--sequential <HW>] [--threads <N>] [--stats] \"<formula>\"...
  mfcsl trajectory <model.mf> --m0 <fractions> --t-end <T> [--points <N>]
  mfcsl fixed-points <model.mf>
  mfcsl vectors <spec.json> --out <dir>
  mfcsl serve <model.mf | dir>... [--addr <host:port>] [--workers <N>] [--queue <N>] [--threads <N>] [--max-sessions <N>] [--loops <N>] [--state-dir <dir>] [--allow-sleep] [--allow-faults]
  mfcsl client <host:port> check <model> --m0 <fractions> [--fast] [--simulate] [--population <N>] [--reps <R>] [--seed <S>] [--timeout-ms <T>] [--retry <N>] [--param k=v]... \"<formula>\"...
  mfcsl client <host:port> health|metrics|models|shutdown

  <fractions> is comma-separated and must sum to 1, e.g. 0.8,0.15,0.05.
  Formulas use the MF-CSL text syntax, e.g.
      EP{<0.3}[ not_infected U[0,1] infected ]
      E{>0.8}[ P{>0.9}[ infected U[0,15] P{>0.8}[ tt U[0,0.5] infected ] ] ]
  All formulas of one invocation share a single analysis session (one
  mean-field solve, shared satisfaction-set and curve caches) and fan out
  over a work-stealing thread pool: --threads <N> sets the lane count
  (default: the machine's available parallelism; results are bitwise
  identical at any thread count). csat accepts --m0 repeatedly and sweeps
  every formula over all initial occupancies in parallel; the sweep's
  missing trajectories are solved up front by one batched Dopri5 drive
  (per-lane controllers by default — bitwise identical to scalar solving;
  --batch-shared switches to one shared controller, cheaper but only
  within-tolerance). --stats prints
  the session's cache counters, per-solve timings with RHS-evaluation
  counts, the command's allocation count, per-kernel heap peaks (the
  resident matrix bytes each check/csat kernel held), and the pool's
  per-thread task counts.

  simulate is the statistical lane: instead of the mean-field limit it
  estimates each formula at finite population <N> from SSA replications
  (deterministic per --seed at any thread count) and prints the verdict
  with one confidence-interval line per E/ES/EP operator. --sequential
  <HW> switches from fixed-sample to Chow-Robbins stopping at target
  half-width <HW>. vectors regenerates the golden conformance-vector
  suite from a spec (see vectors/spec.json); verify.sh byte-compares the
  output against the committed vectors/ directory.

  serve runs the mfcsld batch-checking daemon over the given models; it
  keeps sessions warm per (model, params, tolerances) and answers with
  verdicts bitwise identical to offline check. client talks to it.
  The daemon serves on epoll event loops (--loops threads) with HTTP
  keep-alive; --workers threads run the checks. --state-dir writes warm
  session state to disk whenever a check grows it and restores it at
  startup, so a restarted daemon (even after SIGKILL) answers warm;
  client --retry rides out 429 backpressure. --allow-sleep and --allow-faults enable the
  debug sleep_ms and fault request fields for load and chaos tests.
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    match run(argv) {
        Ok(output) => {
            print!("{output}");
            if !output.ends_with('\n') {
                println!();
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            // One line per error: scripts (and humans) get the cause
            // without a usage dump scrolling it away.
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: Vec<String>) -> Result<String, CliError> {
    let mut argv = argv.into_iter();
    let command = argv.next().ok_or_else(|| CliError("no command".into()))?;
    let rest: Vec<String> = argv.collect();

    // Commands with their own argument shapes dispatch before the common
    // `<model.mf> [flags]` path.
    match command.as_str() {
        "help" | "--help" | "-h" => return Ok(USAGE.to_string()),
        "serve" => return commands::serve(args::parse_serve(&rest)?),
        "client" => {
            let mut rest = rest.into_iter();
            let addr = rest
                .next()
                .ok_or_else(|| CliError("client needs the daemon's <host:port>".into()))?;
            let action = rest
                .next()
                .ok_or_else(|| CliError("client needs an action (check, health, …)".into()))?;
            let tail: Vec<String> = rest.collect();
            return if action == "check" {
                let mut tail = tail.into_iter();
                let model = tail
                    .next()
                    .ok_or_else(|| CliError("client check needs a model name".into()))?;
                let flags = args::parse_client_check(&tail.collect::<Vec<_>>())?;
                commands::client_check(&addr, &model, &flags)
            } else {
                commands::client_control(&addr, &action)
            };
        }
        "vectors" => {
            let mut rest = rest.into_iter();
            let spec = rest
                .next()
                .ok_or_else(|| CliError("vectors needs a <spec.json>".into()))?;
            let tail: Vec<String> = rest.collect();
            let out_dir = match tail.as_slice() {
                [flag, dir] if flag == "--out" => PathBuf::from(dir),
                [] => return Err(CliError("vectors needs --out <dir>".into())),
                other => {
                    return Err(CliError(format!(
                        "unexpected vectors arguments {other:?} (expected --out <dir>)"
                    )))
                }
            };
            return commands::vectors(&PathBuf::from(spec), &out_dir);
        }
        _ => {}
    }

    let mut rest = rest.into_iter();
    let model_path = rest
        .next()
        .ok_or_else(|| CliError("missing model file".into()))?;
    let file = ModelFile::load(&PathBuf::from(&model_path))?;
    let model = file.instantiate()?;
    let flags = args::parse_common(&rest.collect::<Vec<_>>())?;

    match command.as_str() {
        "info" => commands::info(&model, file.params()),
        "check" => commands::check(
            &model,
            &flags.single_m0()?,
            flags.formulas()?,
            flags.fast,
            flags.stats,
            flags.threads,
        ),
        "csat" => {
            let theta = flags
                .theta
                .ok_or_else(|| CliError("--theta is required for csat".into()))?;
            commands::csat(
                &model,
                &flags.all_m0s()?,
                theta,
                flags.formulas()?,
                flags.stats,
                flags.threads,
                flags.batch_shared,
            )
        }
        "simulate" => commands::simulate(&model, &flags.single_m0()?, flags.formulas()?, &flags),
        "trajectory" => {
            let t_end = flags
                .t_end
                .ok_or_else(|| CliError("--t-end is required for trajectory".into()))?;
            commands::trajectory(&model, &flags.single_m0()?, t_end, flags.points)
        }
        "fixed-points" => commands::fixed_points(&model),
        other => Err(CliError(format!(
            "unknown command `{other}` (run `mfcsl help` for usage)"
        ))),
    }
}
