//! `telemetry`: what metrics collection costs, and the proof that it costs
//! nothing *semantically*.
//!
//! Gate: seeded runs of every builtin scenario produce bit-identical
//! outcomes with telemetry enabled (registry + `MetricsObserver`) and
//! disabled.
//!
//! Timing: interleaved enabled/disabled repetitions of the W1 snapshot (80
//! episodes and 20 reps, 6 episodes and 3 reps under `--quick`), appended
//! to `BENCH_telemetry.json` (`"bench": "telemetry"`).  In full mode the
//! part fails (exit 1) when the min-wall overhead of the enabled runs
//! exceeds the 2% gate.

use nasaic_bench::{fail, gate, gate_scenario, round, scenario_fields, w1_snapshot, Options};
use nasaic_core::prelude::*;
use nasaic_core::scenario::value::ConfigValue::{self, Float, Integer};
use std::time::Instant;

/// Wall-time overhead the enabled runs must stay under, as a fraction.
const OVERHEAD_GATE: f64 = 0.02;

/// One run of the scenario on a fresh engine, through the same code path
/// either way (the `MetricsObserver` early-returns while disabled); only
/// the telemetry flag differs between the compared runs.
fn run_once(scenario: &Scenario, telemetry: bool) -> RunReport {
    nasaic_telemetry::set_enabled(telemetry);
    if telemetry {
        nasaic_telemetry::global().reset();
    }
    let observer = MetricsObserver::new();
    let engine = scenario.engine();
    let report = scenario.run_report_checkpointed(
        scenario.search.algorithm,
        &engine,
        &observer,
        None,
        &NullCheckpointSink,
    );
    nasaic_telemetry::set_enabled(false);
    report
}

/// Strip the only field that legitimately differs between repetitions.
fn outcome_only(report: &RunReport) -> ConfigValue {
    let mut stripped = report.to_value();
    stripped.remove("wall_ms");
    stripped
}

/// The identity gate; returns the failures (empty = pass).
fn identity_failures() -> Vec<String> {
    let mut failures = Vec::new();
    for name in registry::names() {
        let scenario = gate_scenario(name);
        let disabled = outcome_only(&run_once(&scenario, false));
        let enabled = outcome_only(&run_once(&scenario, true));
        if disabled != enabled {
            failures.push(format!("telemetry changed the `{name}` search outcome"));
        }
    }
    failures
}

pub fn run(options: &Options) {
    println!("== telemetry identity gate ==");
    gate(
        "every builtin scenario's outcome is bit-identical with telemetry \
         enabled and disabled",
        identity_failures(),
    );
    if options.check {
        return;
    }

    let scenario = w1_snapshot(options.quick, 80);
    println!(
        "== overhead measurement (w1, seed {}, {} episodes x (1 + {}) designs) ==",
        scenario.seed, scenario.search.episodes, scenario.search.hardware_trials
    );

    // Interleave enabled/disabled repetitions so thermal and cache drift
    // hits both sides evenly; the min of each side is the honest estimate
    // of its cost floor.  The full mode needs many reps: each run is only
    // tens of milliseconds, so the min converges slowly on shared runners.
    let reps = if options.quick { 3 } else { 20 };
    let mut disabled_ms = f64::INFINITY;
    let mut enabled_ms = f64::INFINITY;
    // Warm-up run so neither side pays first-touch costs.
    run_once(&scenario, false);
    for _ in 0..reps {
        let start = Instant::now();
        run_once(&scenario, false);
        disabled_ms = disabled_ms.min(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        run_once(&scenario, true);
        enabled_ms = enabled_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let overhead = (enabled_ms - disabled_ms) / disabled_ms.max(f64::MIN_POSITIVE);
    println!(
        "disabled {disabled_ms:.1} ms, enabled {enabled_ms:.1} ms (min of {reps}): \
         overhead {:.2}%",
        overhead * 100.0
    );
    if !options.quick && overhead > OVERHEAD_GATE {
        fail(&format!(
            "telemetry overhead {:.2}% exceeds the {:.0}% gate",
            overhead * 100.0,
            OVERHEAD_GATE * 100.0
        ));
    }

    let fields = [
        ("reps", Integer(reps as i64)),
        ("disabled_ms", Float(round(disabled_ms, 1))),
        ("enabled_ms", Float(round(enabled_ms, 1))),
        ("overhead_pct", Float(round(overhead * 100.0, 2))),
        ("overhead_gate_pct", Float(OVERHEAD_GATE * 100.0)),
    ];
    options.record(scenario_fields(&scenario).into_iter().chain(fields));
}
