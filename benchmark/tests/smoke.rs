//! Every workload, untraced and traced, with 1 s windows and the output
//! check on: drift in the service API, a wrong outcome or a metric that
//! no longer matches `BENCHMARK.json` fails here.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["interactive", "simulate", "faults", "burst"];

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke")
}

/// Metric names `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let mut names: Vec<String> = spec
        .get(section)
        .expect("section present")
        .as_arr()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(json::Json::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    names.sort();
    names
}

/// Run one workload and return its parsed JSON result line.
fn run(workload: &str, trace: &str) -> json::Json {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_skilltax-benchmark"));
    cmd.args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--warmup", "0.2", "--trace", trace, "--out"])
        .arg(out_dir());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SKILLTAX_") {
            cmd.env_remove(key);
        }
    }
    let output = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("the result is JSON")
}

fn check(workload: &str, trace: &str, section: &str) {
    let result = run(workload, trace);
    assert_eq!(
        result.get("correct"),
        Some(&json::Json::Bool(true)),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(json::Json::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(json::Json::as_f64)
            .unwrap()
            >= 1.0
    );
    let metrics = result.get("metrics").unwrap().fields();
    let mut names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    names.sort();
    assert_eq!(names, declared(section), "{workload} --trace {trace}");
    for (name, m) in metrics {
        let value = m.get("value").and_then(json::Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {value:?}"
        );
    }
}

#[test]
fn every_workload_reports_the_end_to_end_metrics() {
    for workload in WORKLOADS {
        check(workload, "0", "end_to_end");
    }
}

#[test]
fn every_workload_reports_the_per_layer_metrics_and_a_trace() {
    for workload in WORKLOADS {
        check(workload, "1", "per_layer");
        let trace = out_dir().join(format!("{workload}.trace.json"));
        let doc = json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(
            doc.get("traceEvents").unwrap().as_arr().len() > 100,
            "{} holds too few events",
            trace.display()
        );
    }
}
