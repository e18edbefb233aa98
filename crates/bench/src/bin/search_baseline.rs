//! Whole-search perf snapshot: runs the full NASAIC search end to end on
//! the W1 scenario (fixed seed, fixed budget), verifies that a seeded
//! run's event stream is deterministic, and appends a wall-time /
//! cache-hit trajectory point to `BENCH_search.json`.
//!
//! ```text
//! search_baseline [--quick] [--label <label>] [--output <path>]
//! search_baseline --validate-trace <path>
//! ```
//!
//! * `--quick` — short budget (CI); default is the full budget used for
//!   committed trajectory points.
//! * `--label` — entry label (default `local`).
//! * `--output` — trajectory file to append to (default
//!   `BENCH_search.json` in the current directory), holding
//!   `{"schema": 1, "bench": "search_e2e", "entries": [...]}`.
//! * `--validate-trace <path>` — instead of benchmarking, check that the
//!   file is valid JSON lines whose every line carries an `event` tag and
//!   that the stream ends with `search_finished` (the CI smoke for
//!   `nasaic run --trace`); exits non-zero on any violation.
//!
//! The process exits non-zero when the determinism gate fails — two
//! seeded runs must stream identical events — so CI can gate on it.

use nasaic_core::prelude::*;
use nasaic_core::scenario::value::{self, ConfigValue};
use std::time::Instant;

struct Args {
    quick: bool,
    label: String,
    output: String,
    validate_trace: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        label: "local".to_string(),
        output: "BENCH_search.json".to_string(),
        validate_trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--label" => args.label = it.next().expect("--label needs a value"),
            "--output" => args.output = it.next().expect("--output needs a value"),
            "--validate-trace" => {
                args.validate_trace = Some(it.next().expect("--validate-trace needs a value"))
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Validate a `nasaic run --trace` file: JSON lines, every line tagged
/// with `event`, final event `search_finished`.  Returns the failures
/// (empty = pass).
fn trace_failures(path: &str) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return vec![format!("cannot read {path}: {e}")],
    };
    let mut failures = Vec::new();
    let mut last_kind = None;
    let mut lines = 0usize;
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            failures.push(format!("line {}: empty line in trace", index + 1));
            continue;
        }
        lines += 1;
        match value::parse_json(line) {
            Err(e) => failures.push(format!("line {}: not valid JSON ({e})", index + 1)),
            Ok(event) => match event.get("event").and_then(|v| v.as_str()) {
                None => failures.push(format!("line {}: missing `event` tag", index + 1)),
                Some(kind) => last_kind = Some(kind.to_string()),
            },
        }
    }
    if lines == 0 {
        failures.push("trace is empty".to_string());
    }
    if last_kind.as_deref() != Some("search_finished") && failures.is_empty() {
        failures.push(format!(
            "trace does not end with `search_finished` (last event: {last_kind:?})"
        ));
    }
    failures
}

/// The scenario the snapshot measures: W1 at a fixed seed with a fixed
/// mid-sized budget (`--quick` shrinks it for CI).
fn snapshot_scenario(quick: bool) -> Scenario {
    let mut scenario = registry::get("w1").expect("w1 is built in");
    scenario.seed = 2020;
    if quick {
        scenario.search.episodes = 6;
        scenario.search.hardware_trials = 3;
        scenario.search.bound_samples = 5;
    } else {
        scenario.search.episodes = 60;
        scenario.search.hardware_trials = 5;
        scenario.search.bound_samples = 20;
    }
    scenario
}

/// The determinism gate: on a shrunk W1, two seeded runs must stream the
/// same events.  Returns the failures (empty = pass).
fn determinism_failures() -> Vec<String> {
    let mut scenario = registry::get("w1").expect("w1 is built in");
    scenario.seed = 11;
    scenario.search.episodes = 3;
    scenario.search.hardware_trials = 2;
    scenario.search.bound_samples = 3;
    let first = RecordingObserver::new();
    scenario.run_algorithm_observed(Algorithm::Nasaic, &scenario.engine(), &first);
    let second = RecordingObserver::new();
    scenario.run_algorithm_observed(Algorithm::Nasaic, &scenario.engine(), &second);
    if first.events() != second.events() {
        return vec!["nasaic: event stream is not deterministic for a seed".to_string()];
    }
    Vec::new()
}

fn main() {
    let args = parse_args();

    if let Some(path) = &args.validate_trace {
        let failures = trace_failures(path);
        if failures.is_empty() {
            println!("ok: {path} is a valid search trace");
            return;
        }
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }

    println!("== determinism gate ==");
    let failures = determinism_failures();
    if failures.is_empty() {
        println!("ok: a seeded run streams the same events twice");
    } else {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }

    let scenario = snapshot_scenario(args.quick);
    println!(
        "== whole-search measurement (w1, seed {}, {} episodes x (1 + {}) designs) ==",
        scenario.seed, scenario.search.episodes, scenario.search.hardware_trials
    );
    let engine = scenario.engine();
    let recorder = RecordingObserver::new();
    let start = Instant::now();
    let report = scenario.run_report_observed(Algorithm::Nasaic, &engine, &recorder);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let events = recorder.events().len();
    println!(
        "wall {wall_ms:.0} ms, {} explored, {} compliant, cache hit rate {:.1}% \
         (accuracy {:.1}%, hardware {:.1}%), {events} events",
        report.explored,
        report.spec_compliant,
        report.cache_hit_rate * 100.0,
        report.accuracy_hit_rate * 100.0,
        report.hardware_hit_rate * 100.0
    );

    let mut entry = ConfigValue::table();
    entry.insert("label", ConfigValue::Str(args.label.clone()));
    entry.insert(
        "mode",
        ConfigValue::Str(if args.quick { "quick" } else { "full" }.to_string()),
    );
    entry.insert("date", ConfigValue::Str(nasaic_bench::today_utc()));
    entry.insert("scenario", ConfigValue::Str(scenario.name.clone()));
    entry.insert("algorithm", ConfigValue::Str("nasaic".to_string()));
    entry.insert("seed", ConfigValue::Integer(scenario.seed as i64));
    entry.insert(
        "episodes",
        ConfigValue::Integer(scenario.search.episodes as i64),
    );
    entry.insert(
        "hardware_trials",
        ConfigValue::Integer(scenario.search.hardware_trials as i64),
    );
    entry.insert("wall_ms", ConfigValue::Float(wall_ms.round()));
    entry.insert("explored", ConfigValue::Integer(report.explored as i64));
    entry.insert(
        "spec_compliant",
        ConfigValue::Integer(report.spec_compliant as i64),
    );
    entry.insert(
        "cache_hit_rate",
        ConfigValue::Float((report.cache_hit_rate * 1e4).round() / 1e4),
    );
    entry.insert(
        "accuracy_hit_rate",
        ConfigValue::Float((report.accuracy_hit_rate * 1e4).round() / 1e4),
    );
    entry.insert(
        "hardware_hit_rate",
        ConfigValue::Float((report.hardware_hit_rate * 1e4).round() / 1e4),
    );
    entry.insert(
        "accuracy_entries",
        ConfigValue::Integer(report.accuracy_entries as i64),
    );
    entry.insert(
        "hardware_entries",
        ConfigValue::Integer(report.hardware_entries as i64),
    );
    match &report.best {
        Some(best) => entry.insert(
            "best_weighted_accuracy",
            ConfigValue::Float((best.weighted_accuracy * 1e6).round() / 1e6),
        ),
        None => entry.insert("best_weighted_accuracy", ConfigValue::Float(0.0)),
    }
    entry.insert("events", ConfigValue::Integer(events as i64));
    // The field keeps its name so the trajectory's entries stay comparable.
    entry.insert("dispatch_gate", ConfigValue::Str("ok".to_string()));

    let mut root = match std::fs::read_to_string(&args.output) {
        Ok(existing) => value::parse_json(&existing).unwrap_or_else(|e| {
            eprintln!("cannot parse existing {}: {e}", args.output);
            std::process::exit(1);
        }),
        Err(_) => {
            let mut fresh = ConfigValue::table();
            fresh.insert("schema", ConfigValue::Integer(1));
            fresh.insert("bench", ConfigValue::Str("search_e2e".to_string()));
            fresh.insert("entries", ConfigValue::Array(Vec::new()));
            fresh
        }
    };
    let mut entries = root
        .get("entries")
        .and_then(|e| e.as_array())
        .map(<[ConfigValue]>::to_vec)
        .unwrap_or_default();
    entries.push(entry);
    root.insert("entries", ConfigValue::Array(entries));
    std::fs::write(&args.output, value::to_json(&root) + "\n").unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.output);
        std::process::exit(1);
    });
    println!("wrote {}", args.output);
}
