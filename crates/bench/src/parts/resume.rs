//! `resume`: what externalized search state costs and buys.
//!
//! Gates, on a shrunk W1 for every algorithm: resuming from the mid-run
//! checkpoint must be bit-identical to the uninterrupted run, in its
//! outcome and in its last checkpoint's driver state (controller, rng,
//! counters), and a merged 4-shard outcome must be bit-identical to the
//! single-process run, both through their JSON round trips.
//!
//! Timing, on the W1 snapshot (60 episodes, 6 under `--quick`), appended
//! to `BENCH_resume.json` (`"bench": "resume"`):
//!
//! * checkpoint overhead: wall-time delta per snapshot between a plain
//!   run and one writing a checkpoint file at every snapshot point, and
//!   the final sizes of that checkpoint's head and journal;
//! * resume payoff: wall-time of resuming from the mid-run checkpoint
//!   versus re-running from scratch;
//! * shard fan-out: the slowest of 4 monte-carlo shards plus the merge,
//!   versus the single-process run.

use nasaic_bench::{fail, gate, gate_scenario, round, scenario_fields, w1_snapshot, Options};
use nasaic_core::prelude::*;
use nasaic_core::scenario::value::ConfigValue::{Float, Integer};
use std::time::Instant;

/// The identity gates; returns the failures (empty = pass).
fn identity_failures() -> Vec<String> {
    let mut scenario = gate_scenario("w1");
    let workload = scenario.workload();
    let mut failures = Vec::new();

    for algorithm in Algorithm::all() {
        scenario.search.algorithm = algorithm;
        let baseline = scenario.run_algorithm_with_engine(algorithm, &scenario.engine());

        // Resume gate: checkpoint at every snapshot point, resume from
        // the middle one through its serialized form.
        let sink = RecordingCheckpointSink::every(1);
        let checkpointed = scenario.run_algorithm_checkpointed(
            algorithm,
            &scenario.engine(),
            &NullObserver,
            None,
            &sink,
        );
        if checkpointed != baseline {
            failures.push(format!(
                "{algorithm}: taking checkpoints changed the outcome"
            ));
            continue;
        }
        let checkpoints = sink.checkpoints();
        let Some(checkpoint) = checkpoints.get(checkpoints.len() / 2) else {
            failures.push(format!("{algorithm}: no checkpoints were offered"));
            continue;
        };
        let parsed = match SearchCheckpoint::parse_json(&checkpoint.to_json()) {
            Ok(parsed) => parsed,
            Err(e) => {
                failures.push(format!(
                    "{algorithm}: checkpoint JSON round trip failed ({e})"
                ));
                continue;
            }
        };
        let resumed_sink = RecordingCheckpointSink::every(1);
        let resumed = scenario.run_algorithm_checkpointed(
            algorithm,
            &scenario.engine(),
            &NullObserver,
            Some(&parsed),
            &resumed_sink,
        );
        // The state holds what the outcome does not: the controller fed by
        // pruned episodes.  A resume from the last checkpoint takes none.
        let end_state = resumed_sink
            .checkpoints()
            .pop()
            .map_or_else(|| parsed.state.clone(), |c| c.state);
        if resumed != baseline {
            failures.push(format!(
                "{algorithm}: resume from progress {} diverged from the uninterrupted run",
                parsed.progress
            ));
        } else if checkpoints.last().map(|c| &c.state) != Some(&end_state) {
            failures.push(format!(
                "{algorithm}: resume from progress {} ended in another driver state",
                parsed.progress
            ));
        }

        // Shard gate: 4 workers, each with a fresh engine, merged back.
        let shards = 4;
        let plan = scenario.algorithm_shard_plan(algorithm, &scenario.engine(), shards);
        let mut partials = Vec::with_capacity(shards);
        let mut round_trip_ok = true;
        for shard_index in 0..shards {
            let partial = scenario.run_algorithm_shard(
                algorithm,
                &scenario.engine(),
                &NullObserver,
                &plan,
                shard_index,
            );
            match ShardPartial::parse_json(&partial.to_json(), &workload) {
                Ok(partial) => partials.push(partial),
                Err(e) => {
                    failures.push(format!(
                        "{algorithm}: shard {shard_index} partial JSON round trip failed ({e})"
                    ));
                    round_trip_ok = false;
                    break;
                }
            }
        }
        if !round_trip_ok {
            continue;
        }
        match scenario.merge_algorithm_shards(algorithm, &scenario.engine(), &plan, partials) {
            Ok(merged) if merged == baseline => {}
            Ok(_) => failures.push(format!(
                "{algorithm}: merged {shards}-shard outcome diverged from the single-process run"
            )),
            Err(e) => failures.push(format!("{algorithm}: {shards}-shard merge failed ({e})")),
        }
    }
    failures
}

pub fn run(options: &Options) {
    println!("== resume/shard identity gates ==");
    gate(
        "mid-run resume and 4-shard merge are bit-identical to the \
         uninterrupted single-process run for every algorithm",
        identity_failures(),
    );
    if options.check {
        return;
    }

    let scenario = w1_snapshot(options.quick, 60);
    println!(
        "== checkpoint/resume measurement (w1, seed {}, {} episodes x (1 + {}) designs) ==",
        scenario.seed, scenario.search.episodes, scenario.search.hardware_trials
    );

    // Plain run: the baseline wall-time and outcome everything else is
    // measured against.
    let start = Instant::now();
    let baseline = scenario.run_algorithm_with_engine(Algorithm::Nasaic, &scenario.engine());
    let plain_ms = start.elapsed().as_secs_f64() * 1e3;

    // Checkpointing run: a checkpoint file rewritten at every snapshot
    // point — the worst-case cadence.
    let dir = std::env::temp_dir().join("nasaic-bench-resume");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("checkpoint.json");
    let file_sink = FileCheckpointSink::new(&path, 1);
    let start = Instant::now();
    let outcome = scenario.run_algorithm_checkpointed(
        Algorithm::Nasaic,
        &scenario.engine(),
        &NullObserver,
        None,
        &file_sink,
    );
    let checkpointed_ms = start.elapsed().as_secs_f64() * 1e3;
    if let Some(e) = file_sink.take_error() {
        fail(&format!("checkpoint file sink errored: {e}"));
    }
    assert_eq!(outcome, baseline, "checkpointing changed the outcome");
    let file_size = |path: &std::path::Path| std::fs::metadata(path).map_or(0, |m| m.len());
    let journal = nasaic_core::checkpoint::journal_path(&path);
    let (head_bytes, journal_bytes) = (file_size(&path), file_size(&journal));
    // Recapture in memory for the resume measurement (same snapshot
    // points, no file I/O in the way of the resume pick).
    let recorder = RecordingCheckpointSink::every(1);
    scenario.run_algorithm_checkpointed(
        Algorithm::Nasaic,
        &scenario.engine(),
        &NullObserver,
        None,
        &recorder,
    );
    let checkpoints = recorder.checkpoints();
    let count = checkpoints.len();
    if SearchCheckpoint::load(&path).ok().as_ref() != checkpoints.last() {
        fail("the checkpoint file does not load back to the last checkpoint");
    }
    let overhead_us = ((checkpointed_ms - plain_ms).max(0.0) / count.max(1) as f64) * 1e3;
    println!(
        "plain {plain_ms:.0} ms; {count} file checkpoints {checkpointed_ms:.0} ms \
         ({overhead_us:.0} us/checkpoint); final head {head_bytes} B, journal {journal_bytes} B"
    );
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&path);

    // Resume payoff: restart from the mid-run checkpoint and finish.
    let midpoint = &checkpoints[count / 2];
    let parsed =
        SearchCheckpoint::parse_json(&midpoint.to_json()).expect("checkpoint JSON round trip");
    let start = Instant::now();
    let resumed = scenario.run_algorithm_checkpointed(
        Algorithm::Nasaic,
        &scenario.engine(),
        &NullObserver,
        Some(&parsed),
        &NullCheckpointSink,
    );
    let resume_ms = start.elapsed().as_secs_f64() * 1e3;
    if resumed != baseline {
        fail("resume from the mid-run checkpoint diverged on the snapshot budget");
    }
    println!(
        "resume from progress {}/{}: {resume_ms:.0} ms vs {plain_ms:.0} ms from scratch \
         ({:.0}% saved)",
        parsed.progress,
        count,
        (1.0 - resume_ms / plain_ms.max(f64::MIN_POSITIVE)) * 100.0
    );

    // Shard fan-out: monte-carlo (a strided plan that actually distributes
    // trials) split 4 ways; each shard gets a fresh engine, as separate
    // worker processes would.  Sequential walls stand in for 4 workers:
    // the parallel wall is the slowest shard plus the merge.
    let shards = 4;
    let workload = scenario.workload();
    let start = Instant::now();
    let single = scenario.run_algorithm_with_engine(Algorithm::MonteCarlo, &scenario.engine());
    let single_ms = start.elapsed().as_secs_f64() * 1e3;
    let plan = scenario.algorithm_shard_plan(Algorithm::MonteCarlo, &scenario.engine(), shards);
    let mut partials = Vec::with_capacity(shards);
    let mut slowest_shard_ms = 0.0f64;
    for shard_index in 0..shards {
        let start = Instant::now();
        let partial = scenario.run_algorithm_shard(
            Algorithm::MonteCarlo,
            &scenario.engine(),
            &NullObserver,
            &plan,
            shard_index,
        );
        slowest_shard_ms = slowest_shard_ms.max(start.elapsed().as_secs_f64() * 1e3);
        partials.push(
            ShardPartial::parse_json(&partial.to_json(), &workload)
                .expect("shard partial JSON round trip"),
        );
    }
    let start = Instant::now();
    let merged = scenario
        .merge_algorithm_shards(Algorithm::MonteCarlo, &scenario.engine(), &plan, partials)
        .expect("shard partials of one run merge");
    let merge_ms = start.elapsed().as_secs_f64() * 1e3;
    if merged != single {
        fail(&format!(
            "merged {shards}-shard outcome diverged on the snapshot budget"
        ));
    }
    let shard_wall_ms = slowest_shard_ms + merge_ms;
    let shard_speedup = single_ms / shard_wall_ms.max(f64::MIN_POSITIVE);
    println!(
        "monte-carlo {shards} shards: slowest shard {slowest_shard_ms:.0} ms + merge \
         {merge_ms:.1} ms = {shard_wall_ms:.0} ms vs single-process {single_ms:.0} ms \
         ({shard_speedup:.2}x)"
    );

    let fields = [
        ("plain_wall_ms", Float(plain_ms.round())),
        ("checkpointed_wall_ms", Float(checkpointed_ms.round())),
        ("checkpoints", Integer(count as i64)),
        ("checkpoint_overhead_us", Float(overhead_us.round())),
        ("head_bytes", Integer(head_bytes as i64)),
        ("journal_bytes", Integer(journal_bytes as i64)),
        ("resume_progress", Integer(parsed.progress as i64)),
        ("resume_wall_ms", Float(resume_ms.round())),
        ("shards", Integer(shards as i64)),
        ("single_process_wall_ms", Float(single_ms.round())),
        ("slowest_shard_wall_ms", Float(slowest_shard_ms.round())),
        ("merge_wall_ms", Float(round(merge_ms, 1))),
        ("shard_speedup", Float(round(shard_speedup, 2))),
    ];
    options.record(scenario_fields(&scenario).into_iter().chain(fields));
}
