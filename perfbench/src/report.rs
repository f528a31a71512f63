//! Metric names, units and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names; the
//! smoke test checks that every declared metric is printed with its unit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("ops_per_s", "1/s"),
    ("peak_mem_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.late_p50_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.p99_us", "us"),
    ("serve.open_p50_us", "us"),
    ("serve.open_p90_us", "us"),
    ("serve.connections", "count"),
    ("serve.warm_hit_frac", "ratio"),
    ("serve.cold_starts", "count/op"),
    ("serve.evictions", "count/op"),
    ("serve.rejected_429", "count"),
    ("serve.scrape_p50_us", "us"),
    ("serve.rss_b_per_request", "B"),
    ("serve.single_conn_p50_us", "us"),
    ("serve.http_parse_us", "us"),
    ("serve.json_parse_us", "us"),
    ("core.formula_parse_us", "us"),
    ("serve.session_lookup_us", "us"),
    ("core.check_all_us", "us"),
    ("serve.render_us", "us"),
    ("modelfile.instantiate_us", "us"),
    ("serve.unattributed_us", "us"),
    ("core.trajectory_solves", "count/op"),
    ("core.regime_solves", "count/op"),
    ("csl.set_misses", "count/op"),
    ("csl.curve_misses", "count/op"),
    ("ode.rhs_evals", "count/op"),
    ("ode.batch_lanes", "count/op"),
    ("ode.solve_us", "us"),
    ("ctmc.regime_us", "us"),
    ("csl.sat_us", "us"),
    ("csl.until_us", "us"),
    ("csl.nested_us", "us"),
    ("csl.csat_us", "us"),
    ("core.unattributed_us", "us"),
    ("pool.tasks_per_op", "count/op"),
    ("pool.busy_frac", "ratio"),
    ("pool.speedup_vs_serial", "ratio"),
    ("math.allocs_per_op", "count/op"),
    ("math.peak_heap_kb", "KB"),
    ("sim.build_ms", "ms"),
    ("sim.pooled_p50_us", "us"),
    ("ctmc.serial_p50_us", "us"),
    ("ctmc.uniformization_steps", "count/op"),
    ("ctmc.bytes_per_op_computed", "B"),
    ("ctmc.gbps_computed", "GB/s"),
    ("trace.self_sum_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// What one run found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a wrong output: it fails the op and the run.
    pub fn mismatch(&mut self, what: String) {
        self.correct = false;
        self.failed += 1;
        if self
            .notes
            .iter()
            .filter(|n| n.starts_with("MISMATCH"))
            .count()
            < 5
        {
            self.notes.push(format!("MISMATCH {what}"));
        }
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// the run's kind, each `{"value", "unit"}`. Numbers print with every
/// digit Rust's shortest round-trip formatting gives.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let table = if traced { PER_LAYER } else { END_TO_END };
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut o = Outcome::new();
        for (name, _) in END_TO_END {
            o.set(name, 1.25);
        }
        o.attempted = 3;
        let line = result_line(&o, false).unwrap();
        let v = mfcsl_serve::Json::parse(&line).unwrap();
        assert_eq!(
            v.get("attempted").and_then(mfcsl_serve::Json::as_f64),
            Some(3.0)
        );
        let metrics = v.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("p50_us")
                .and_then(|m| m.get("unit"))
                .and_then(|u| u.as_str()),
            Some("us")
        );
        o.metrics.remove("p50_us");
        assert!(result_line(&o, false).is_err());
        // Traced runs fill layers a workload does not touch with 0.
        assert!(result_line(&o, true)
            .unwrap()
            .contains("\"pool.busy_frac\": {\"value\": 0.0"));
    }
}
