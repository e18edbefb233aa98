//! `search`: the whole NASAIC search end to end on W1, the loop of the
//! paper's Fig. 4.
//!
//! Gate: two seeded runs of a shrunk W1 stream the same events.
//!
//! Timing: one seeded W1 search (60 episodes, 6 under `--quick`) — wall
//! time, explored and compliant counts, cache hit rates, best weighted
//! accuracy and event count, appended to `BENCH_search.json`
//! (`"bench": "search_e2e"`).

use nasaic_bench::{gate, gate_scenario, round, scenario_fields, w1_snapshot, Options};
use nasaic_core::prelude::*;
use nasaic_core::scenario::value::ConfigValue::{Float, Integer, Str};
use std::time::Instant;

/// The determinism gate; returns the failures (empty = pass).
fn determinism_failures() -> Vec<String> {
    let scenario = gate_scenario("w1");
    let first = RecordingObserver::new();
    scenario.run_algorithm_observed(Algorithm::Nasaic, &scenario.engine(), &first);
    let second = RecordingObserver::new();
    scenario.run_algorithm_observed(Algorithm::Nasaic, &scenario.engine(), &second);
    if first.events() != second.events() {
        return vec!["nasaic: event stream is not deterministic for a seed".to_string()];
    }
    Vec::new()
}

pub fn run(options: &Options) {
    println!("== determinism gate ==");
    gate(
        "a seeded run streams the same events twice",
        determinism_failures(),
    );
    if options.check {
        return;
    }

    let scenario = w1_snapshot(options.quick, 60);
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

    let best = report.best.as_ref().map_or(0.0, |b| b.weighted_accuracy);
    // `algorithm` follows `scenario`, as in the committed entries.
    let mut fields = Vec::from(scenario_fields(&scenario));
    fields.insert(1, ("algorithm", Str("nasaic".to_string())));
    fields.extend([
        ("wall_ms", Float(wall_ms.round())),
        ("explored", Integer(report.explored as i64)),
        ("spec_compliant", Integer(report.spec_compliant as i64)),
        ("cache_hit_rate", Float(round(report.cache_hit_rate, 4))),
        (
            "accuracy_hit_rate",
            Float(round(report.accuracy_hit_rate, 4)),
        ),
        (
            "hardware_hit_rate",
            Float(round(report.hardware_hit_rate, 4)),
        ),
        ("accuracy_entries", Integer(report.accuracy_entries as i64)),
        ("hardware_entries", Integer(report.hardware_entries as i64)),
        ("best_weighted_accuracy", Float(round(best, 6))),
        ("events", Integer(events as i64)),
    ]);
    options.record(fields);
}
