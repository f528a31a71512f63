//! Short runs of every workload through the built `benchmark` binary:
//! every metric `BENCHMARK.json` declares is printed with its unit, the
//! trace parses and its spans nest, and a corrupted reference fails the
//! run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use mfcsl_serve::Json;

const SECONDS: &str = "0.5";

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(bench: &Json, key: &str) -> Vec<String> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .expect("array")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("benchmark runs")
}

fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {stdout}"))
}

/// Every declared metric of `kind` is present with its declared unit.
fn assert_metrics(bench: &Json, kind: &str, result: &Json, workload: &str) {
    let metrics = result.get("metrics").expect("metrics");
    for m in bench.get(kind).and_then(Json::as_arr).expect("metric list") {
        let name = m.get("name").and_then(Json::as_str).expect("name");
        let unit = m.get("unit").and_then(Json::as_str).expect("unit");
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
        assert_eq!(
            got.get("unit").and_then(Json::as_str),
            Some(unit),
            "{workload}: {name}"
        );
        let value = got.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {value:?}"
        );
    }
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
}

/// Parses a trace file and checks that every child lies inside its parent
/// and belongs to the same op.
fn assert_spans_nest(path: &PathBuf) -> usize {
    let text = std::fs::read_to_string(path).expect("trace written");
    let trace = Json::parse(&text).expect("trace parses");
    let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
    let field = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64);
    for (i, s) in spans.iter().enumerate() {
        let (start, end) = (field(s, "start_ns").unwrap(), field(s, "end_ns").unwrap());
        assert!(start <= end, "span {i} ends before it starts");
        if let Some(p) = field(s, "parent") {
            let parent = &spans[p as usize];
            assert!(p < i as f64, "span {i}: parent recorded after child");
            assert_eq!(
                field(parent, "op"),
                field(s, "op"),
                "span {i}: op differs from parent"
            );
            assert!(
                field(parent, "start_ns").unwrap() <= start
                    && end <= field(parent, "end_ns").unwrap(),
                "span {i} is not inside its parent"
            );
        }
    }
    spans.len()
}

#[test]
fn every_workload_prints_its_metrics_and_a_nested_trace() {
    let bench = benchmark_json();
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for workload in names(&bench, "workloads") {
        let out = run(&[
            "--workload",
            &workload,
            "--seed",
            "3",
            "--seconds",
            SECONDS,
            "--trace",
            "0",
        ]);
        assert!(
            out.status.success(),
            "{workload}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_metrics(&bench, "end_to_end", &result_line(&out), &workload);

        let trace = tmp.join(format!("trace-{workload}.json"));
        let trace_arg = trace.to_str().expect("utf-8 path");
        let out = run(&[
            "--workload",
            &workload,
            "--seed",
            "3",
            "--seconds",
            SECONDS,
            "--trace",
            "1",
            "--trace-out",
            trace_arg,
        ]);
        assert!(
            out.status.success(),
            "{workload}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_metrics(&bench, "per_layer", &result_line(&out), &workload);
        assert!(assert_spans_nest(&trace) > 0, "{workload}: empty trace");
    }
}

#[test]
fn a_corrupted_reference_fails_the_run() {
    for workload in ["serve_hot", "check_virus", "lumped_exact"] {
        let out = run(&[
            "--workload",
            workload,
            "--seconds",
            SECONDS,
            "--trace",
            "0",
            "--corrupt-reference",
        ]);
        assert_eq!(out.status.code(), Some(1), "{workload}");
        let result = result_line(&out);
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(false),
            "{workload}"
        );
        assert!(result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "1"],
        &["--workload", "serve_hot", "--trace", "2"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
