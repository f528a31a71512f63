//! Command-line flag parsing and validation.
//!
//! Every accessor validates as it parses, so malformed input dies with one
//! clear line (and a nonzero exit) before any model work starts: occupancies
//! must lie on the simplex, `--threads` must be at least 1, time-valued
//! flags (`--theta`, `--t-end`, `--timeout-ms`) must be finite and positive.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::commands::{parse_occupancy, CliError};

/// Flags common to the checking commands, parsed from everything after the
/// model path. Unknown `--flags` are rejected; bare words are collected as
/// positional arguments (formulas).
#[derive(Debug, Default)]
pub struct CommonFlags {
    /// Raw `--m0` values, in order.
    pub m0_texts: Vec<String>,
    /// `--theta`, validated finite and positive.
    pub theta: Option<f64>,
    /// `--t-end`, validated finite and positive.
    pub t_end: Option<f64>,
    /// `--points` (default 101).
    pub points: usize,
    /// `--threads`, validated at least 1.
    pub threads: Option<usize>,
    /// `--fast`.
    pub fast: bool,
    /// `--stats`.
    pub stats: bool,
    /// `--batch-shared`: drive csat sweep prewarms with one shared
    /// step-size controller instead of per-lane controllers.
    pub batch_shared: bool,
    /// `--population` (simulate): the finite population size `N`.
    pub population: Option<usize>,
    /// `--reps` (simulate): replication count (default 200).
    pub reps: Option<usize>,
    /// `--seed` (simulate): base seed of the replication family.
    pub seed: u64,
    /// `--confidence` (simulate): two-sided CI level (default 0.95).
    pub confidence: f64,
    /// `--sequential <half-width>` (simulate): grow the batch until every
    /// operator CI is at most this wide (Chow–Robbins stopping).
    pub sequential: Option<f64>,
    /// Positional arguments (formulas).
    pub positional: Vec<String>,
}

/// Parses the common checking flags.
///
/// # Errors
///
/// Returns a one-line [`CliError`] for unknown flags, missing values, and
/// out-of-domain values.
pub fn parse_common(rest: &[String]) -> Result<CommonFlags, CliError> {
    let mut flags = CommonFlags {
        points: 101,
        confidence: 0.95,
        ..CommonFlags::default()
    };
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--m0" => {
                flags.m0_texts.push(flag_value(rest, i, "--m0")?);
                i += 2;
            }
            "--threads" => {
                flags.threads = Some(parse_threads(&flag_value(rest, i, "--threads")?)?);
                i += 2;
            }
            "--theta" => {
                flags.theta = Some(parse_positive_time(
                    "--theta",
                    &flag_value(rest, i, "--theta")?,
                )?);
                i += 2;
            }
            "--t-end" => {
                flags.t_end = Some(parse_positive_time(
                    "--t-end",
                    &flag_value(rest, i, "--t-end")?,
                )?);
                i += 2;
            }
            "--points" => {
                flags.points = flag_value(rest, i, "--points")?
                    .parse()
                    .map_err(|e| CliError(format!("bad --points: {e}")))?;
                i += 2;
            }
            "--fast" => {
                flags.fast = true;
                i += 1;
            }
            "--stats" => {
                flags.stats = true;
                i += 1;
            }
            "--batch-shared" => {
                flags.batch_shared = true;
                i += 1;
            }
            "--population" => {
                flags.population = Some(parse_count(
                    "--population",
                    &flag_value(rest, i, "--population")?,
                )?);
                i += 2;
            }
            "--reps" => {
                flags.reps = Some(parse_count("--reps", &flag_value(rest, i, "--reps")?)?);
                i += 2;
            }
            "--seed" => {
                flags.seed = flag_value(rest, i, "--seed")?
                    .parse()
                    .map_err(|e| CliError(format!("bad --seed: {e}")))?;
                i += 2;
            }
            "--confidence" => {
                let text = flag_value(rest, i, "--confidence")?;
                let level: f64 = text
                    .parse()
                    .map_err(|e| CliError(format!("bad --confidence: {e}")))?;
                if !(level > 0.0 && level < 1.0) {
                    return Err(CliError(format!(
                        "--confidence must lie strictly between 0 and 1 (got `{text}`)"
                    )));
                }
                flags.confidence = level;
                i += 2;
            }
            "--sequential" => {
                let text = flag_value(rest, i, "--sequential")?;
                let hw: f64 = text
                    .parse()
                    .map_err(|e| CliError(format!("bad --sequential: {e}")))?;
                if !(hw > 0.0 && hw < 1.0) {
                    return Err(CliError(format!(
                        "--sequential expects a target CI half-width in (0, 1) (got `{text}`)"
                    )));
                }
                flags.sequential = Some(hw);
                i += 2;
            }
            other if other.starts_with("--") => {
                return Err(CliError(format!("unknown flag `{other}`")));
            }
            _ => {
                flags.positional.push(rest[i].clone());
                i += 1;
            }
        }
    }
    Ok(flags)
}

impl CommonFlags {
    /// The single `--m0` of a non-sweeping command, parsed onto the simplex.
    ///
    /// # Errors
    ///
    /// Fails when `--m0` is missing, repeated, malformed, or off-simplex.
    pub fn single_m0(&self) -> Result<mfcsl_core::Occupancy, CliError> {
        match self.m0_texts.as_slice() {
            [] => Err(CliError("--m0 is required for this command".into())),
            [one] => parse_occupancy(one),
            _ => Err(CliError(
                "this command takes a single --m0 (only csat sweeps several)".into(),
            )),
        }
    }

    /// All `--m0` values of a sweeping command (at least one).
    ///
    /// # Errors
    ///
    /// Fails when no `--m0` was given or any is malformed or off-simplex.
    pub fn all_m0s(&self) -> Result<Vec<mfcsl_core::Occupancy>, CliError> {
        if self.m0_texts.is_empty() {
            return Err(CliError("--m0 is required for this command".into()));
        }
        self.m0_texts.iter().map(|t| parse_occupancy(t)).collect()
    }

    /// The positional formulas (at least one).
    ///
    /// # Errors
    ///
    /// Fails when no formula was given.
    pub fn formulas(&self) -> Result<&[String], CliError> {
        if self.positional.is_empty() {
            Err(CliError("a formula argument is required".into()))
        } else {
            Ok(&self.positional)
        }
    }
}

/// Flags of `mfcsl serve`.
#[derive(Debug)]
pub struct ServeFlags {
    /// `.mf` files and/or directories to load into the registry.
    pub paths: Vec<PathBuf>,
    /// `--addr` (default `127.0.0.1:7171`; use port `0` for ephemeral).
    pub addr: String,
    /// `--workers` (default 4).
    pub workers: usize,
    /// `--queue` (default 64).
    pub queue: usize,
    /// `--threads` (default: the machine's available parallelism).
    pub threads: usize,
    /// `--max-sessions` (default 64): warm sessions retained before LRU
    /// eviction kicks in.
    pub max_sessions: usize,
    /// `--allow-sleep` (honor the debug `sleep_ms` request field).
    pub allow_sleep: bool,
    /// `--allow-faults` (honor the chaos `fault` request field).
    pub allow_faults: bool,
    /// `--loops` (default 2): event-loop threads.
    pub event_loops: usize,
    /// `--state-dir`: persist warm session state here across restarts.
    pub state_dir: Option<PathBuf>,
}

/// Parses `mfcsl serve` flags: positional model paths plus daemon knobs.
///
/// # Errors
///
/// Returns a one-line [`CliError`] for unknown flags and invalid counts.
pub fn parse_serve(rest: &[String]) -> Result<ServeFlags, CliError> {
    let mut flags = ServeFlags {
        paths: Vec::new(),
        addr: "127.0.0.1:7171".into(),
        workers: 4,
        queue: 64,
        threads: 0,
        max_sessions: 64,
        allow_sleep: false,
        allow_faults: false,
        event_loops: 2,
        state_dir: None,
    };
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--addr" => {
                flags.addr = flag_value(rest, i, "--addr")?;
                i += 2;
            }
            "--workers" => {
                flags.workers = parse_count("--workers", &flag_value(rest, i, "--workers")?)?;
                i += 2;
            }
            "--queue" => {
                flags.queue = parse_count("--queue", &flag_value(rest, i, "--queue")?)?;
                i += 2;
            }
            "--threads" => {
                flags.threads = parse_threads(&flag_value(rest, i, "--threads")?)?;
                i += 2;
            }
            "--max-sessions" => {
                flags.max_sessions =
                    parse_count("--max-sessions", &flag_value(rest, i, "--max-sessions")?)?;
                i += 2;
            }
            "--allow-sleep" => {
                flags.allow_sleep = true;
                i += 1;
            }
            "--allow-faults" => {
                flags.allow_faults = true;
                i += 1;
            }
            "--loops" => {
                flags.event_loops = parse_count("--loops", &flag_value(rest, i, "--loops")?)?;
                i += 2;
            }
            "--state-dir" => {
                flags.state_dir = Some(PathBuf::from(flag_value(rest, i, "--state-dir")?));
                i += 2;
            }
            other if other.starts_with("--") => {
                return Err(CliError(format!("unknown flag `{other}`")));
            }
            _ => {
                flags.paths.push(PathBuf::from(&rest[i]));
                i += 1;
            }
        }
    }
    if flags.paths.is_empty() {
        return Err(CliError(
            "serve needs at least one .mf file or model directory".into(),
        ));
    }
    Ok(flags)
}

/// Flags of `mfcsl client <addr> check`.
#[derive(Debug, Default)]
pub struct ClientCheckFlags {
    /// Raw `--m0` value.
    pub m0: Vec<f64>,
    /// `--fast`.
    pub fast: bool,
    /// `--timeout-ms`, validated finite and positive.
    pub timeout_ms: Option<f64>,
    /// `--param name=value` overrides.
    pub params: BTreeMap<String, f64>,
    /// `--simulate`: send `"mode": "simulate"` so the daemon answers with
    /// finite-N statistical verdicts instead of mean-field ones.
    pub simulate: bool,
    /// `--population` (simulate mode): finite population size `N`.
    pub population: Option<u64>,
    /// `--reps` (simulate mode): replication count.
    pub replications: Option<u64>,
    /// `--seed` (simulate mode): base seed of the replication family.
    pub seed: Option<u64>,
    /// `--retry N`: bounded retries of 429 responses, honoring the
    /// daemon's `Retry-After`. The default 0 keeps existing behavior (and
    /// output) byte-identical: one attempt, errors surface immediately.
    pub retry: usize,
    /// Positional formulas.
    pub formulas: Vec<String>,
}

/// Parses `mfcsl client <addr> check <model>` flags.
///
/// # Errors
///
/// Returns a one-line [`CliError`] for unknown flags and invalid values.
pub fn parse_client_check(rest: &[String]) -> Result<ClientCheckFlags, CliError> {
    let mut flags = ClientCheckFlags::default();
    let mut m0_seen = false;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--m0" => {
                if m0_seen {
                    return Err(CliError("client check takes a single --m0".into()));
                }
                m0_seen = true;
                // Validate on the simplex client-side for a fast local
                // error; the daemon re-validates anyway.
                let occupancy = parse_occupancy(&flag_value(rest, i, "--m0")?)?;
                flags.m0 = occupancy.as_slice().to_vec();
                i += 2;
            }
            "--fast" => {
                flags.fast = true;
                i += 1;
            }
            "--timeout-ms" => {
                flags.timeout_ms = Some(parse_positive_time(
                    "--timeout-ms",
                    &flag_value(rest, i, "--timeout-ms")?,
                )?);
                i += 2;
            }
            "--param" => {
                let text = flag_value(rest, i, "--param")?;
                let (name, value) = text
                    .split_once('=')
                    .ok_or_else(|| CliError(format!("--param expects name=value, got `{text}`")))?;
                let value: f64 = value
                    .trim()
                    .parse()
                    .map_err(|e| CliError(format!("bad --param `{text}`: {e}")))?;
                flags.params.insert(name.trim().to_string(), value);
                i += 2;
            }
            "--simulate" => {
                flags.simulate = true;
                i += 1;
            }
            "--population" => {
                flags.population = Some(parse_count(
                    "--population",
                    &flag_value(rest, i, "--population")?,
                )? as u64);
                i += 2;
            }
            "--reps" => {
                flags.replications =
                    Some(parse_count("--reps", &flag_value(rest, i, "--reps")?)? as u64);
                i += 2;
            }
            "--seed" => {
                flags.seed = Some(
                    flag_value(rest, i, "--seed")?
                        .parse()
                        .map_err(|e| CliError(format!("bad --seed: {e}")))?,
                );
                i += 2;
            }
            "--retry" => {
                flags.retry = flag_value(rest, i, "--retry")?
                    .parse()
                    .map_err(|e| CliError(format!("bad --retry: {e}")))?;
                i += 2;
            }
            other if other.starts_with("--") => {
                return Err(CliError(format!("unknown flag `{other}`")));
            }
            _ => {
                flags.formulas.push(rest[i].clone());
                i += 1;
            }
        }
    }
    if !m0_seen {
        return Err(CliError("--m0 is required for client check".into()));
    }
    if flags.formulas.is_empty() {
        return Err(CliError("a formula argument is required".into()));
    }
    Ok(flags)
}

fn flag_value(rest: &[String], i: usize, flag: &str) -> Result<String, CliError> {
    rest.get(i + 1)
        .cloned()
        .ok_or_else(|| CliError(format!("{flag} needs a value")))
}

/// `--threads`: an integer of at least 1.
///
/// # Errors
///
/// Fails on unparsable or zero values.
pub fn parse_threads(text: &str) -> Result<usize, CliError> {
    let n: usize = text
        .parse()
        .map_err(|e| CliError(format!("bad --threads: {e}")))?;
    if n == 0 {
        return Err(CliError(
            "--threads must be at least 1 (omit the flag for the machine's parallelism)".into(),
        ));
    }
    Ok(n)
}

fn parse_count(flag: &str, text: &str) -> Result<usize, CliError> {
    let n: usize = text
        .parse()
        .map_err(|e| CliError(format!("bad {flag}: {e}")))?;
    if n == 0 {
        return Err(CliError(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

/// A time-valued flag: must parse, be finite, and be strictly positive —
/// `NaN`, infinities, negatives and `0` all die here with the flag named.
///
/// # Errors
///
/// Returns a one-line [`CliError`] naming the flag and the offending value.
pub fn parse_positive_time(flag: &str, text: &str) -> Result<f64, CliError> {
    let value: f64 = text
        .parse()
        .map_err(|e| CliError(format!("bad {flag}: {e}")))?;
    if !(value.is_finite() && value > 0.0) {
        return Err(CliError(format!(
            "{flag} must be a finite, positive time (got `{text}`)"
        )));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn common_flags_roundtrip() {
        let flags = parse_common(&argv(&[
            "--m0",
            "0.9,0.1",
            "--theta",
            "12",
            "--threads",
            "4",
            "--fast",
            "--stats",
            "--batch-shared",
            "E{<0.3}[ infected ]",
        ]))
        .unwrap();
        assert_eq!(flags.m0_texts, vec!["0.9,0.1"]);
        assert_eq!(flags.theta, Some(12.0));
        assert_eq!(flags.threads, Some(4));
        assert!(flags.fast && flags.stats && flags.batch_shared);
        assert!(
            !parse_common(&argv(&["--m0", "0.9,0.1"]))
                .unwrap()
                .batch_shared
        );
        assert_eq!(flags.formulas().unwrap().len(), 1);
        assert_eq!(flags.single_m0().unwrap().len(), 2);
    }

    #[test]
    fn off_simplex_m0_is_one_line_error() {
        let flags = parse_common(&argv(&["--m0", "0.5,0.6"])).unwrap();
        let err = flags.single_m0().unwrap_err().to_string();
        assert!(err.contains("bad occupancy"), "{err}");
        assert!(!err.contains('\n'), "one line expected: {err:?}");
        // Negative fractions are off-simplex too.
        let flags = parse_common(&argv(&["--m0", "1.5,-0.5"])).unwrap();
        assert!(flags.single_m0().is_err());
        // And non-numeric input.
        let flags = parse_common(&argv(&["--m0", "a,b"])).unwrap();
        assert!(flags.single_m0().is_err());
    }

    #[test]
    fn threads_zero_rejected() {
        let err = parse_common(&argv(&["--threads", "0"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--threads must be at least 1"), "{err}");
        assert!(!err.contains('\n'), "{err:?}");
        assert!(parse_common(&argv(&["--threads", "-3"])).is_err());
        assert!(parse_common(&argv(&["--threads", "two"])).is_err());
        assert_eq!(
            parse_common(&argv(&["--threads", "2"])).unwrap().threads,
            Some(2)
        );
    }

    #[test]
    fn malformed_time_windows_rejected() {
        for bad in ["0", "-1", "nan", "inf", "-inf", "abc", ""] {
            for flag in ["--theta", "--t-end"] {
                let err = parse_common(&argv(&[flag, bad])).unwrap_err().to_string();
                assert!(err.contains(flag), "{flag} {bad}: {err}");
                assert!(!err.contains('\n'), "{err:?}");
            }
        }
        assert_eq!(
            parse_common(&argv(&["--t-end", "2.5"])).unwrap().t_end,
            Some(2.5)
        );
    }

    #[test]
    fn simulate_flags_roundtrip() {
        let flags = parse_common(&argv(&[
            "--m0",
            "0.9,0.1",
            "--population",
            "1000",
            "--reps",
            "400",
            "--seed",
            "7",
            "--confidence",
            "0.99",
            "--sequential",
            "0.02",
            "EP{<0.3}[ tt U[0,1] infected ]",
        ]))
        .unwrap();
        assert_eq!(flags.population, Some(1000));
        assert_eq!(flags.reps, Some(400));
        assert_eq!(flags.seed, 7);
        assert_eq!(flags.confidence, 0.99);
        assert_eq!(flags.sequential, Some(0.02));
        // Defaults.
        let flags = parse_common(&argv(&["--m0", "1.0"])).unwrap();
        assert_eq!(flags.confidence, 0.95);
        assert_eq!(flags.seed, 0);
        assert_eq!(flags.population, None);
        // Domain checks.
        assert!(parse_common(&argv(&["--population", "0"])).is_err());
        assert!(parse_common(&argv(&["--confidence", "1.0"])).is_err());
        assert!(parse_common(&argv(&["--confidence", "nan"])).is_err());
        assert!(parse_common(&argv(&["--sequential", "0"])).is_err());
        assert!(parse_common(&argv(&["--seed", "-1"])).is_err());
    }

    #[test]
    fn client_simulate_flags() {
        let flags = parse_client_check(&argv(&[
            "--m0",
            "0.9,0.1",
            "--simulate",
            "--population",
            "500",
            "--reps",
            "300",
            "--seed",
            "9",
            "E{<0.3}[ infected ]",
        ]))
        .unwrap();
        assert!(flags.simulate);
        assert_eq!(flags.population, Some(500));
        assert_eq!(flags.replications, Some(300));
        assert_eq!(flags.seed, Some(9));
        let flags = parse_client_check(&argv(&["--m0", "1.0", "f"])).unwrap();
        assert!(!flags.simulate);
        assert_eq!(flags.population, None);
    }

    #[test]
    fn unknown_and_valueless_flags_rejected() {
        assert!(parse_common(&argv(&["--bogus"]))
            .unwrap_err()
            .to_string()
            .contains("unknown flag"));
        assert!(parse_common(&argv(&["--m0"]))
            .unwrap_err()
            .to_string()
            .contains("needs a value"));
    }

    #[test]
    fn serve_flags() {
        let flags = parse_serve(&argv(&[
            "modelfiles",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue",
            "8",
            "--threads",
            "3",
            "--max-sessions",
            "16",
            "--allow-sleep",
        ]))
        .unwrap();
        assert_eq!(flags.paths.len(), 1);
        assert_eq!(flags.addr, "127.0.0.1:0");
        assert_eq!((flags.workers, flags.queue, flags.threads), (2, 8, 3));
        assert_eq!(flags.max_sessions, 16);
        assert!(flags.allow_sleep);
        assert!(parse_serve(&argv(&[])).is_err());
        assert!(parse_serve(&argv(&["m", "--workers", "0"])).is_err());
        assert!(parse_serve(&argv(&["m", "--queue", "0"])).is_err());
        assert!(parse_serve(&argv(&["m", "--max-sessions", "0"])).is_err());
    }

    #[test]
    fn client_check_flags() {
        let flags = parse_client_check(&argv(&[
            "--m0",
            "0.8,0.15,0.05",
            "--fast",
            "--timeout-ms",
            "500",
            "--param",
            "k2=0.5",
            "E{<0.3}[ infected ]",
        ]))
        .unwrap();
        assert_eq!(flags.m0.len(), 3);
        assert!(flags.fast);
        assert_eq!(flags.timeout_ms, Some(500.0));
        assert_eq!(flags.params["k2"], 0.5);
        assert!(
            parse_client_check(&argv(&["E{<0.3}[ x ]"])).is_err(),
            "m0 required"
        );
        assert!(
            parse_client_check(&argv(&["--m0", "1.0"])).is_err(),
            "formula required"
        );
        assert!(parse_client_check(&argv(&["--m0", "1.0", "--param", "k2", "f"])).is_err());
        assert!(parse_client_check(&argv(&["--m0", "1.0", "--timeout-ms", "-5", "f"])).is_err());
    }
}
