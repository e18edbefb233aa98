//! Telemetry is observationally pure: turning the metrics registry and
//! the [`MetricsObserver`] on must not perturb a seeded search in any
//! way.  This is the test-suite twin of the `nasaic-bench telemetry` identity
//! gate (which also measures overhead).

use nasaic_core::prelude::*;

/// Strip the only field that legitimately differs between repetitions.
fn outcome_only(report: &RunReport) -> nasaic_core::scenario::value::ConfigValue {
    let mut stripped = report.to_value();
    stripped.remove("wall_ms");
    stripped
}

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

/// One test (not one per scenario) because the enable switch is
/// process-global and integration tests run multi-threaded: a parallel
/// sibling toggling the flag mid-run would make the comparison
/// meaningless.
#[test]
fn seeded_outcomes_are_bit_identical_with_telemetry_on_and_off() {
    for name in registry::names() {
        let mut scenario = registry::get(name).expect("built-in scenario");
        scenario.seed = 11;
        scenario.search.episodes = 3;
        scenario.search.hardware_trials = 2;
        scenario.search.bound_samples = 3;
        let disabled = outcome_only(&run_once(&scenario, false));
        let enabled = outcome_only(&run_once(&scenario, true));
        assert_eq!(
            disabled, enabled,
            "telemetry changed the `{name}` search outcome"
        );
    }
}
