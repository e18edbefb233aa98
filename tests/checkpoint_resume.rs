//! Checkpoint/resume and sharded-execution identity gates: for every
//! builtin scenario and every algorithm, a run resumed from any checkpoint
//! and continued to the full budget must be bit-identical to the
//! uninterrupted run, and the merged outcome of an N-shard split must be
//! bit-identical to the single-process run.  Checkpoints and shard
//! partials must survive their JSON round trip unchanged.

use nasaic::core::prelude::*;
use nasaic::core::scenario::value::{self, ConfigValue};

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
fn resuming_any_checkpoint_reproduces_the_uninterrupted_run() {
    for name in registry::names() {
        let mut scenario = shrink(registry::get(name).expect("built-in"));
        for algorithm in Algorithm::all() {
            scenario.search.algorithm = algorithm;
            let baseline = scenario.run_algorithm_with_engine(algorithm, &scenario.engine());

            // Capture a checkpoint at every snapshot point; the
            // checkpointed run itself must not diverge.
            let sink = RecordingCheckpointSink::every(1);
            let checkpointed = scenario.run_algorithm_checkpointed(
                algorithm,
                &scenario.engine(),
                &NullObserver,
                None,
                &sink,
            );
            assert_eq!(
                baseline, checkpointed,
                "{name}/{algorithm}: taking checkpoints changed the outcome"
            );
            let checkpoints = sink.checkpoints();
            let last = checkpoints
                .last()
                .unwrap_or_else(|| panic!("{name}/{algorithm}: no checkpoints were offered"));

            // Resume from the first, middle and last checkpoint, through
            // the serialized form (the proptest suite covers every index
            // on generated scenarios).  The resumed run must end in the
            // same driver state as well as the same outcome: the state
            // holds what pruned episodes and undecodable samples fed the
            // controller, which no record carries.
            let picks = [0, checkpoints.len() / 2, checkpoints.len() - 1];
            for &pick in &picks {
                let checkpoint = &checkpoints[pick];
                let parsed = SearchCheckpoint::parse_json(&checkpoint.to_json())
                    .expect("checkpoint JSON round trip");
                assert_eq!(checkpoint, &parsed);
                let resumed_sink = RecordingCheckpointSink::every(1);
                let resumed = scenario.run_algorithm_checkpointed(
                    algorithm,
                    &scenario.engine(),
                    &NullObserver,
                    Some(&parsed),
                    &resumed_sink,
                );
                assert_eq!(
                    baseline, resumed,
                    "{name}/{algorithm}: resume from checkpoint {} (progress {}) diverged",
                    pick, checkpoint.progress
                );
                // A run resumed from the last checkpoint has nothing left
                // to checkpoint; its last state is the one it resumed from.
                // (`assert!`, not `assert_eq!`: a state dump is ~200 KB.)
                let end = resumed_sink.checkpoints().pop().unwrap_or(parsed);
                assert!(
                    last.state == end.state,
                    "{name}/{algorithm}: resume from checkpoint {pick} ended in another state"
                );
            }
        }
    }
}

#[test]
fn merged_shards_reproduce_the_single_process_run() {
    for name in registry::names() {
        let mut scenario = shrink(registry::get(name).expect("built-in"));
        for algorithm in Algorithm::all() {
            scenario.search.algorithm = algorithm;
            let baseline = scenario.run_algorithm_with_engine(algorithm, &scenario.engine());
            let workload = scenario.workload();

            let shards = 3;
            let plan = scenario.algorithm_shard_plan(algorithm, &scenario.engine(), shards);
            assert_eq!(plan.algorithm, algorithm.name());
            let partials: Vec<ShardPartial> = (0..shards)
                .map(|shard_index| {
                    // Each shard gets its own engine, as separate worker
                    // processes would.
                    let partial = scenario.run_algorithm_shard(
                        algorithm,
                        &scenario.engine(),
                        &NullObserver,
                        &plan,
                        shard_index,
                    );
                    ShardPartial::parse_json(&partial.to_json(), &workload)
                        .expect("shard partial JSON round trip")
                })
                .collect();
            let merged = scenario
                .merge_algorithm_shards(algorithm, &scenario.engine(), &plan, partials)
                .expect("shard partials of one run merge");
            assert_eq!(
                baseline, merged,
                "{name}/{algorithm}: merged {shards}-shard outcome diverged"
            );
        }
    }
}

#[test]
fn shard_counts_are_interchangeable_for_strided_plans() {
    // The strided drivers actually distribute work: the same outcome must
    // come back for any worker count, including more workers than items.
    let mut scenario = shrink(registry::get("w1").expect("built-in"));
    for algorithm in [Algorithm::MonteCarlo, Algorithm::NasThenAsic] {
        scenario.search.algorithm = algorithm;
        let baseline = scenario.run_algorithm_with_engine(algorithm, &scenario.engine());
        for shards in [1, 2, 4, 7] {
            let plan = scenario.algorithm_shard_plan(algorithm, &scenario.engine(), shards);
            assert_eq!(
                plan.mode,
                ShardMode::Strided,
                "{algorithm} should shard its independent trials"
            );
            let partials: Vec<ShardPartial> = (0..shards)
                .map(|shard_index| {
                    scenario.run_algorithm_shard(
                        algorithm,
                        &scenario.engine(),
                        &NullObserver,
                        &plan,
                        shard_index,
                    )
                })
                .collect();
            let merged = scenario
                .merge_algorithm_shards(algorithm, &scenario.engine(), &plan, partials)
                .expect("shard partials of one run merge");
            assert_eq!(
                baseline, merged,
                "{algorithm}: {shards}-shard merge diverged"
            );
        }
    }
}

#[test]
fn checkpoint_events_fire_only_when_a_sink_wants_them() {
    let mut scenario = shrink(registry::get("w3").expect("built-in"));
    scenario.search.algorithm = Algorithm::MonteCarlo;

    // A plain run never emits checkpoint events (so traces of existing
    // runs are unchanged by the checkpoint plumbing).
    let recorder = RecordingObserver::new();
    scenario.run_algorithm_observed(Algorithm::MonteCarlo, &scenario.engine(), &recorder);
    assert_eq!(recorder.count("checkpoint_saved"), 0);

    // A checkpointing run emits one event per taken checkpoint.
    let recorder = RecordingObserver::new();
    let sink = RecordingCheckpointSink::every(2);
    scenario.run_algorithm_checkpointed(
        Algorithm::MonteCarlo,
        &scenario.engine(),
        &recorder,
        None,
        &sink,
    );
    let taken = sink.checkpoints().len();
    assert!(taken > 0);
    assert_eq!(recorder.count("checkpoint_saved"), taken);
}

/// An observer that panics after seeing `limit` events — stands in for a
/// crash (OOM-kill, ^C) mid-search.
struct KillSwitch {
    seen: std::sync::atomic::AtomicUsize,
    limit: usize,
}

impl SearchObserver for KillSwitch {
    fn on_event(&self, _event: &SearchEvent) {
        let seen = self.seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
        assert!(seen < self.limit, "simulated crash after {seen} events");
    }
}

#[test]
fn a_run_killed_mid_search_leaves_a_parseable_trace_prefix() {
    let mut scenario = shrink(registry::get("w1").expect("built-in"));
    scenario.search.algorithm = Algorithm::MonteCarlo;

    // The complete event stream of the run, for comparison.
    let recorder = RecordingObserver::new();
    scenario.run_algorithm_observed(Algorithm::MonteCarlo, &scenario.engine(), &recorder);
    let full_events = recorder.events();
    assert!(full_events.len() > 4);

    // Re-run tracing to a file, with a kill switch that panics mid-search
    // *after* the trace observer has written each event.
    let dir = std::env::temp_dir().join("nasaic-trace-kill-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("killed.jsonl");
    let kill_after = 4;
    let trace = TraceObserver::create(&path).unwrap();
    let kill = KillSwitch {
        seen: std::sync::atomic::AtomicUsize::new(0),
        limit: kill_after,
    };
    let mut observers = MulticastObserver::new();
    observers.push(&trace);
    observers.push(&kill);
    let engine = scenario.engine();
    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        scenario.run_algorithm_observed(Algorithm::MonteCarlo, &engine, &observers);
    }));
    assert!(died.is_err(), "the kill switch must fire mid-run");
    // The trace is dropped without `finish()` — as a killed process would.
    drop(trace);

    // Per-event flushing must have left exactly the pre-crash events as
    // complete, parseable JSON lines matching the uninterrupted stream.
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), kill_after);
    for (line, event) in lines.iter().zip(&full_events) {
        let mut parsed =
            nasaic::core::scenario::value::parse_json(line).expect("complete JSON line");
        // The trace layer stamps each line with `elapsed_ms` (schema v2);
        // everything else must match the event verbatim.
        parsed.remove("elapsed_ms").expect("schema v2 timestamp");
        assert_eq!(parsed, event.to_value(), "trace prefix diverged");
    }
}

#[test]
fn resume_rejects_checkpoints_from_another_algorithm() {
    let mut scenario = shrink(registry::get("w1").expect("built-in"));
    scenario.search.algorithm = Algorithm::MonteCarlo;
    let sink = RecordingCheckpointSink::every(1);
    scenario.run_algorithm_checkpointed(
        Algorithm::MonteCarlo,
        &scenario.engine(),
        &NullObserver,
        None,
        &sink,
    );
    let checkpoint = sink.checkpoints().pop().expect("a checkpoint");
    let error = scenario
        .run_report_checkpointed(
            Algorithm::Evolutionary,
            &scenario.engine(),
            &NullObserver,
            Some(&checkpoint),
            &NullCheckpointSink,
        )
        .expect_err("a monte-carlo checkpoint must not resume an evolutionary run");
    assert!(
        error
            .to_string()
            .contains("`monte-carlo`, not `evolutionary`"),
        "{error}"
    );
}

/// A file sink that stops wanting checkpoints after `until` — a run cut
/// off there, as a killed process would leave its files — and keeps the
/// head's text after every checkpoint it took.
struct CutOff<'a> {
    inner: &'a FileCheckpointSink,
    head: &'a std::path::Path,
    until: usize,
    heads: std::sync::Mutex<Vec<String>>,
}

impl CheckpointSink for CutOff<'_> {
    fn wants(&self, progress: usize) -> bool {
        progress <= self.until && self.inner.wants(progress)
    }

    fn on_checkpoint(&self, checkpoint: &SearchCheckpoint) {
        self.inner.on_checkpoint(checkpoint);
        let text = std::fs::read_to_string(self.head).expect("head written");
        self.heads.lock().unwrap().push(text);
    }
}

#[test]
fn a_file_checkpoint_cut_off_mid_run_loads_and_resumes_bit_identically() {
    let dir = std::env::temp_dir().join(format!("nasaic-cutoff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut scenario = shrink(registry::get("w1").expect("built-in"));
    // Enough budget for several generations of the evolutionary search.
    scenario.search.episodes = 12;
    scenario.search.population = 6;
    for algorithm in Algorithm::all() {
        scenario.search.algorithm = algorithm;
        let baseline = scenario.run_algorithm_with_engine(algorithm, &scenario.engine());
        let recorder = RecordingCheckpointSink::every(1);
        scenario.run_algorithm_checkpointed(
            algorithm,
            &scenario.engine(),
            &NullObserver,
            None,
            &recorder,
        );
        let checkpoints = recorder.checkpoints();
        let midpoint = &checkpoints[checkpoints.len() / 2];

        let head = dir.join(format!("{algorithm}.ckpt"));
        let file_sink = FileCheckpointSink::new(&head, 1);
        let cut = CutOff {
            inner: &file_sink,
            head: &head,
            until: midpoint.progress,
            heads: std::sync::Mutex::new(Vec::new()),
        };
        let cut_run = scenario.run_algorithm_checkpointed(
            algorithm,
            &scenario.engine(),
            &NullObserver,
            None,
            &cut,
        );
        assert_eq!(
            baseline, cut_run,
            "{algorithm}: the file sink changed the outcome"
        );
        assert!(
            file_sink.take_error().is_none(),
            "{algorithm}: the file sink failed"
        );

        let loaded = SearchCheckpoint::load(&head).expect("head and journal load");
        assert_eq!(
            &loaded, midpoint,
            "{algorithm}: the loaded checkpoint differs"
        );
        // A kill between the sink's remove and rename leaves the head only
        // at its temp name; it loads the same.
        let tmp = nasaic::core::checkpoint::tmp_path(&head);
        std::fs::rename(&head, &tmp).expect("move the head to its temp name");
        assert_eq!(
            SearchCheckpoint::load(&head).expect("temp head and journal load"),
            loaded,
            "{algorithm}: the temp head loads differently"
        );
        // Resume into a new checkpoint file: its first checkpoint carries
        // the whole history, so it loads on its own.
        let next = dir.join(format!("{algorithm}.resumed.ckpt"));
        let next_sink = FileCheckpointSink::new(&next, 1);
        let resumed = scenario.run_algorithm_checkpointed(
            algorithm,
            &scenario.engine(),
            &NullObserver,
            Some(&loaded),
            &next_sink,
        );
        assert_eq!(
            baseline, resumed,
            "{algorithm}: resume from the file diverged"
        );
        assert!(
            next_sink.take_error().is_none(),
            "{algorithm}: the resumed run's file sink failed"
        );
        assert_eq!(
            &SearchCheckpoint::load(&next).expect("resumed head and journal load"),
            checkpoints.last().unwrap(),
            "{algorithm}: the resumed run's last checkpoint differs"
        );

        // Heads hold fixed-size state only: records go to the journal.
        let heads = cut.heads.into_inner().unwrap();
        if matches!(algorithm, Algorithm::MonteCarlo | Algorithm::Evolutionary) {
            let (first, last) = (heads[0].len(), heads[heads.len() - 1].len());
            assert!(
                last <= first + 64,
                "{algorithm}: the head grew from {first} to {last} bytes"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The characters the numbers of `value` take as JSON text.
fn number_chars(value: &ConfigValue) -> usize {
    match value {
        ConfigValue::Integer(_) | ConfigValue::Float(_) => value::to_json_compact(value).len(),
        ConfigValue::Array(items) => items.iter().map(number_chars).sum(),
        ConfigValue::Table(entries) => entries.iter().map(|(_, v)| number_chars(v)).sum(),
        ConfigValue::Bool(_) | ConfigValue::Str(_) => 0,
    }
}

#[test]
fn a_nasaic_head_does_not_grow_with_the_run() {
    let dir = std::env::temp_dir().join(format!("nasaic-head-size-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut scenario = registry::get("w1").expect("built-in");
    scenario.search.episodes = 100;
    let head = dir.join("w1.ckpt");
    let file_sink = FileCheckpointSink::new(&head, 1);
    let sink = CutOff {
        inner: &file_sink,
        head: &head,
        until: scenario.search.episodes,
        heads: std::sync::Mutex::new(Vec::new()),
    };
    scenario.run_algorithm_checkpointed(
        Algorithm::Nasaic,
        &scenario.engine(),
        &NullObserver,
        None,
        &sink,
    );
    let error = file_sink.take_error();
    let heads = sink.heads.into_inner().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(error.is_none(), "the file sink failed: {error:?}");
    // NASAIC checkpoints after every episode, so head `i` is progress i + 1.
    assert_eq!(heads.len(), 100);
    // Only the numbers (counters, rng position, baseline) may change
    // length: the keys, the punctuation and the hex matrices may not.
    let rest = |head: &str| head.len() - number_chars(&value::parse_json(head).unwrap());
    let (early, late) = (&heads[9], &heads[99]);
    assert_eq!(
        rest(early),
        rest(late),
        "the head grew from {} bytes at progress 10 to {} at 100",
        early.len(),
        late.len()
    );
}

/// The keys of a table, in order.
fn keys(value: &ConfigValue) -> Vec<&str> {
    let entries = value.as_table().expect("a table");
    entries.iter().map(|(key, _)| key.as_str()).collect()
}

#[test]
fn a_journal_record_holds_each_fact_once() {
    let dir = std::env::temp_dir().join(format!("nasaic-record-keys-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut scenario = shrink(registry::get("w1").expect("built-in"));
    let mut journals = Vec::new();
    for algorithm in Algorithm::all() {
        scenario.search.algorithm = algorithm;
        let head = dir.join(format!("{algorithm}.ckpt"));
        let sink = FileCheckpointSink::new(&head, 1);
        scenario.run_algorithm_checkpointed(
            algorithm,
            &scenario.engine(),
            &NullObserver,
            None,
            &sink,
        );
        assert!(
            sink.take_error().is_none(),
            "{algorithm}: the file sink failed"
        );
        let journal = nasaic::core::checkpoint::journal_path(&head);
        journals.push((algorithm, std::fs::read_to_string(journal).unwrap()));
    }
    let _ = std::fs::remove_dir_all(&dir);
    for (algorithm, journal) in journals {
        assert!(
            journal.lines().count() > 0,
            "{algorithm} journalled no record"
        );
        for line in journal.lines() {
            let record = value::parse_json(line).expect("a record parses");
            assert_eq!(
                keys(&record),
                ["episode", "candidate", "evaluation", "reward"],
                "{algorithm}"
            );
            let candidate = record.get("candidate").unwrap();
            assert_eq!(keys(candidate), ["arch_values", "subs"], "{algorithm}");
            assert_eq!(
                keys(record.get("evaluation").unwrap()),
                [
                    "accuracies",
                    "weighted_accuracy",
                    "latency_cycles",
                    "energy_nj",
                    "area_um2",
                    "spec_latency",
                    "spec_energy",
                    "spec_area"
                ],
                "{algorithm}"
            );
        }
    }
}
