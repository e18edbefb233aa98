//! The `SearchAlgorithm` trait + `Algorithm::instantiate` factory: the
//! instantiated drivers carry the declared budget, and observation is
//! passive and deterministic for every algorithm.  The seeded outcomes
//! themselves are pinned in `tests/controller_outcomes.rs`.

use nasaic::core::algorithm::Budget;
use nasaic::core::prelude::*;

/// Shrink a scenario to a test-sized budget (same shape, seconds not
/// minutes).
fn shrink(mut scenario: Scenario) -> Scenario {
    scenario.search.episodes = 3;
    scenario.search.hardware_trials = 2;
    scenario.search.bound_samples = 3;
    scenario.seed = 7;
    scenario
}

#[test]
fn instantiated_drivers_report_the_algorithm_name() {
    let scenario = shrink(registry::get("w3").unwrap());
    for algorithm in Algorithm::all() {
        let driver = algorithm.instantiate(&scenario.search, scenario.seed);
        assert_eq!(driver.name(), algorithm.name());
    }
}

#[test]
fn observation_is_passive_for_every_algorithm() {
    // Running with a RecordingObserver must not change the outcome.
    let mut scenario = shrink(registry::get("w1").unwrap());
    for algorithm in Algorithm::all() {
        scenario.search.algorithm = algorithm;
        let silent = scenario.run_algorithm_with_engine(algorithm, &scenario.engine());
        let recorder = RecordingObserver::new();
        let observed = scenario.run_algorithm_observed(algorithm, &scenario.engine(), &recorder);
        assert_eq!(
            silent, observed,
            "{algorithm}: observer changed the outcome"
        );
        assert!(
            !recorder.events().is_empty(),
            "{algorithm}: observer saw no events"
        );
    }
}

#[test]
fn event_streams_are_deterministic_for_a_seed() {
    let mut scenario = shrink(registry::get("w3").unwrap());
    for algorithm in [
        Algorithm::Nasaic,
        Algorithm::MonteCarlo,
        Algorithm::NasThenAsic,
        Algorithm::AsicThenHwNas,
    ] {
        scenario.search.algorithm = algorithm;
        let first = RecordingObserver::new();
        scenario.run_algorithm_observed(algorithm, &scenario.engine(), &first);
        let second = RecordingObserver::new();
        scenario.run_algorithm_observed(algorithm, &scenario.engine(), &second);
        assert_eq!(
            first.events(),
            second.events(),
            "{algorithm}: same seed produced different event streams"
        );
    }
}

#[test]
fn nasaic_event_count_matches_the_declared_budget() {
    let mut scenario = shrink(registry::get("w3").unwrap());
    scenario.search.algorithm = Algorithm::Nasaic;
    let recorder = RecordingObserver::new();
    scenario.run_algorithm_observed(Algorithm::Nasaic, &scenario.engine(), &recorder);
    // One EpisodeEvaluated per declared episode, one final summary.
    assert_eq!(
        recorder.count("episode_evaluated"),
        scenario.search.episodes
    );
    assert_eq!(recorder.count("search_finished"), 1);
    let events = recorder.events();
    assert!(matches!(
        events.last(),
        Some(SearchEvent::SearchFinished { .. })
    ));
    // Each NASAIC episode evaluates 1 + phi candidates.
    let per_episode = 1 + scenario.search.hardware_trials;
    for event in &events {
        if let SearchEvent::EpisodeEvaluated { evaluations, .. } = event {
            assert_eq!(*evaluations, per_episode);
        }
    }
    // The final summary's explored count matches the outcome bookkeeping.
    let outcome = scenario.run_algorithm_with_engine(Algorithm::Nasaic, &scenario.engine());
    if let Some(SearchEvent::SearchFinished { explored, .. }) = events.last() {
        assert_eq!(*explored, outcome.explored.len());
    }
}

#[test]
fn monte_carlo_event_count_matches_the_total_evaluation_budget() {
    let mut scenario = shrink(registry::get("w3").unwrap());
    scenario.search.algorithm = Algorithm::MonteCarlo;
    let recorder = RecordingObserver::new();
    scenario.run_algorithm_observed(Algorithm::MonteCarlo, &scenario.engine(), &recorder);
    assert_eq!(
        recorder.count("episode_evaluated"),
        scenario.search.budget().total_evaluations()
    );
    assert_eq!(recorder.count("search_finished"), 1);
}

#[test]
fn successive_baselines_emit_phase_events_and_keep_phase_summaries() {
    let mut scenario = shrink(registry::get("w1").unwrap());
    for (algorithm, expected_phases) in [
        (Algorithm::NasThenAsic, ["nas", "asic-sweep"]),
        (Algorithm::AsicThenHwNas, ["asic-monte-carlo", "hw-nas"]),
    ] {
        scenario.search.algorithm = algorithm;
        let recorder = RecordingObserver::new();
        let outcome = scenario.run_algorithm_observed(algorithm, &scenario.engine(), &recorder);
        assert_eq!(recorder.count("phase_started"), 2, "{algorithm}");
        assert_eq!(recorder.count("phase_finished"), 2, "{algorithm}");
        let phase_names: Vec<&str> = outcome.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(phase_names, expected_phases, "{algorithm}");
        // The PhaseFinished events carry the same summaries the outcome keeps.
        let finished: Vec<PhaseSummary> = recorder
            .events()
            .into_iter()
            .filter_map(|e| match e {
                SearchEvent::PhaseFinished { summary, .. } => Some(summary),
                _ => None,
            })
            .collect();
        assert_eq!(finished, outcome.phases, "{algorithm}");
    }
}

#[test]
fn new_incumbent_events_are_strictly_improving() {
    let mut scenario = shrink(registry::get("w3").unwrap());
    scenario.search.episodes = 5;
    scenario.search.algorithm = Algorithm::MonteCarlo;
    let recorder = RecordingObserver::new();
    scenario.run_algorithm_observed(Algorithm::MonteCarlo, &scenario.engine(), &recorder);
    let mut last = f64::NEG_INFINITY;
    for event in recorder.events() {
        if let SearchEvent::NewIncumbent {
            weighted_accuracy, ..
        } = event
        {
            assert!(weighted_accuracy > last);
            last = weighted_accuracy;
        }
    }
}

#[test]
fn context_budget_mirrors_the_search_spec() {
    let scenario = shrink(registry::get("w2").unwrap());
    let budget = scenario.search.budget();
    assert_eq!(budget, Budget::new(3, 2));
    assert_eq!(
        budget.total_evaluations(),
        scenario.search.total_evaluations()
    );
}

/// An observer that asks the run to stop once it has seen `after` events.
struct StopAfter {
    seen: std::sync::atomic::AtomicUsize,
    after: usize,
}

impl SearchObserver for StopAfter {
    fn on_event(&self, _event: &SearchEvent) {
        self.seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }

    fn should_stop(&self) -> bool {
        self.seen.load(std::sync::atomic::Ordering::SeqCst) >= self.after
    }
}

#[test]
fn a_stop_cancels_the_run_at_its_next_snapshot_and_the_last_checkpoint_resumes() {
    let mut scenario = shrink(registry::get("w1").unwrap());
    for algorithm in Algorithm::all() {
        scenario.search.algorithm = algorithm;
        let full_recorder = RecordingObserver::new();
        let full = scenario.run_algorithm_checkpointed(
            algorithm,
            &scenario.engine(),
            &full_recorder,
            None,
            &RecordingCheckpointSink::every(1),
        );
        let full_events = full_recorder.events();
        // Every snapshot point after progress 0 shows as a
        // `checkpoint_saved` event under a sink that wants every unit.
        let saved: Vec<usize> = (0..full_events.len())
            .filter(|&i| full_events[i].kind() == "checkpoint_saved")
            .collect();
        let last = *saved.last().expect("a snapshot point");
        for after in [1, 2, 3, last / 2, last, last + 1] {
            let recorder = RecordingObserver::new();
            let stop = StopAfter {
                seen: std::sync::atomic::AtomicUsize::new(0),
                after,
            };
            let mut observers = MulticastObserver::new();
            observers.push(&recorder);
            observers.push(&stop);
            let sink = RecordingCheckpointSink::every(1);
            let result = scenario.run_report_checkpointed(
                algorithm,
                &scenario.engine(),
                &observers,
                None,
                &sink,
            );
            let events = recorder.events();
            assert_eq!(
                events,
                full_events[..events.len()],
                "{algorithm} after {after}"
            );
            if after > last {
                // Asked after the last snapshot point: the run finishes.
                let report = result.expect("a stop after the last snapshot point");
                assert_eq!(events, full_events, "{algorithm} after {after}");
                assert_eq!(report.explored, full.explored.len());
                continue;
            }
            assert_eq!(
                result.expect_err("the stop cancels the run"),
                SearchError::Cancelled,
                "{algorithm} after {after}"
            );
            // It stops at the first snapshot point after the stop was
            // asked for, at the latest where the next checkpoint was due.
            let due = *saved.iter().find(|&&i| i >= after).expect("a due snapshot");
            assert!(
                (after..=due).contains(&events.len()),
                "{algorithm} after {after}: stopped after {} events, due at {due}",
                events.len()
            );
            assert_eq!(recorder.count("search_finished"), 0);
            let checkpoints = sink.checkpoints();
            assert_eq!(checkpoints.len(), recorder.count("checkpoint_saved"));
            if let Some(checkpoint) = checkpoints.last() {
                let resumed = scenario.run_algorithm_checkpointed(
                    algorithm,
                    &scenario.engine(),
                    &NullObserver,
                    Some(checkpoint),
                    &NullCheckpointSink,
                );
                assert_eq!(resumed, full, "{algorithm} after {after}: resume diverged");
            }
        }
    }
}
