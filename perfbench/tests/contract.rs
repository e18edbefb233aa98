//! The harness keeps the contract `BENCHMARK.json` declares: it accepts
//! exactly the declared workloads, emits exactly the declared metrics with
//! their units, and a short run of every workload completes with no failed
//! operation.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use nasaic_core::scenario::value::{self, ConfigValue};
use std::process::Command;

fn benchmark_json() -> ConfigValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    value::parse_json(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a declared metric list.
fn declared(root: &ConfigValue, list: &str) -> Vec<(String, String)> {
    root.get(list)
        .and_then(ConfigValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(ConfigValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("the harness runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

#[test]
fn every_workload_runs_clean_and_emits_the_declared_metrics() {
    let root = benchmark_json();
    let workloads: Vec<String> = root
        .get("workloads")
        .and_then(ConfigValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(ConfigValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ["rl-w1", "serve-durable"]);
    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, stdout) = run(workload, trace);
            let last = stdout.lines().last().unwrap_or_default();
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
            let result = value::parse_json(last).expect("the last line is JSON");
            assert_eq!(
                result.get("correct").and_then(ConfigValue::as_bool),
                Some(true)
            );
            assert_eq!(
                result.get("failed").and_then(ConfigValue::as_integer),
                Some(0)
            );
            assert!(result.get("attempted").and_then(ConfigValue::as_integer) >= Some(1));
            let metrics = result
                .get("metrics")
                .and_then(ConfigValue::as_table)
                .expect("metrics");
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(ConfigValue::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            let mut expected = declared(&root, list);
            let mut emitted_sorted = emitted.clone();
            expected.sort();
            emitted_sorted.sort();
            assert_eq!(emitted_sorted, expected, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn unknown_workloads_and_missing_flags_are_refused() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "rl-w1", "--seed", "1", "--seconds", "1"],
        vec![
            "--workload",
            "rl-w1",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("the harness runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
