//! Checkpoint/resume and sharded-execution perf snapshot: runs the NASAIC
//! search on the W1 scenario (fixed seed, fixed budget) and measures what
//! externalized search state costs and buys —
//!
//! * checkpoint overhead: wall-time delta per snapshot between a plain
//!   run and one writing a checkpoint file at every snapshot point, and
//!   the final sizes of that checkpoint's head and journal;
//! * resume payoff: wall-time of resuming from the mid-run checkpoint
//!   versus re-running from scratch;
//! * shard fan-out: the slowest of 4 monte-carlo shards plus the merge,
//!   versus the single-process run.
//!
//! ```text
//! resume_baseline [--quick] [--check] [--label <label>] [--output <path>]
//! ```
//!
//! * `--quick` — short budget (CI); default is the full budget used for
//!   committed trajectory points.
//! * `--check` — run the identity gates only and skip the timing write
//!   (the gates are deterministic; CI runners are too noisy for the
//!   timing numbers to be meaningful).
//! * `--label` — entry label (default `local`).
//! * `--output` — trajectory file to append to (default
//!   `BENCH_resume.json`), holding
//!   `{"schema": 1, "bench": "resume", "entries": [...]}`.
//!
//! The process exits non-zero when an identity gate fails: a resumed run
//! must be bit-identical to the uninterrupted one, and a merged N-shard
//! outcome must be bit-identical to the single-process run, both through
//! their JSON round trips.

use nasaic_core::prelude::*;
use nasaic_core::scenario::value::{self, ConfigValue};
use std::time::Instant;

struct Args {
    quick: bool,
    check: bool,
    label: String,
    output: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        check: false,
        label: "local".to_string(),
        output: "BENCH_resume.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--label" => args.label = it.next().expect("--label needs a value"),
            "--output" => args.output = it.next().expect("--output needs a value"),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
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

/// The identity gates on a shrunk W1: resuming any run from its mid-run
/// checkpoint (through JSON) must be bit-identical to the uninterrupted
/// run, and the merged 4-shard outcome (through JSON) must be
/// bit-identical to the single-process run.  Returns the failures
/// (empty = pass).
fn identity_failures() -> Vec<String> {
    let mut scenario = registry::get("w1").expect("w1 is built in");
    scenario.seed = 11;
    scenario.search.episodes = 3;
    scenario.search.hardware_trials = 2;
    scenario.search.bound_samples = 3;
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
        let resumed = scenario.run_algorithm_checkpointed(
            algorithm,
            &scenario.engine(),
            &NullObserver,
            Some(&parsed),
            &NullCheckpointSink,
        );
        if resumed != baseline {
            failures.push(format!(
                "{algorithm}: resume from progress {} diverged from the uninterrupted run",
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
        let merged =
            scenario.merge_algorithm_shards(algorithm, &scenario.engine(), &plan, partials);
        if merged != baseline {
            failures.push(format!(
                "{algorithm}: merged {shards}-shard outcome diverged from the single-process run"
            ));
        }
    }
    failures
}

fn main() {
    let args = parse_args();

    println!("== resume/shard identity gates ==");
    let failures = identity_failures();
    if failures.is_empty() {
        println!(
            "ok: mid-run resume and 4-shard merge are bit-identical to the \
             uninterrupted single-process run for every algorithm"
        );
    } else {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
    if args.check {
        return;
    }

    let scenario = snapshot_scenario(args.quick);
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
    let dir = std::env::temp_dir().join("nasaic-resume-baseline");
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
        eprintln!("FAIL: checkpoint file sink errored: {e}");
        std::process::exit(1);
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
        eprintln!("FAIL: the checkpoint file does not load back to the last checkpoint");
        std::process::exit(1);
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
        eprintln!("FAIL: resume from the mid-run checkpoint diverged on the snapshot budget");
        std::process::exit(1);
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
    let merged =
        scenario.merge_algorithm_shards(Algorithm::MonteCarlo, &scenario.engine(), &plan, partials);
    let merge_ms = start.elapsed().as_secs_f64() * 1e3;
    if merged != single {
        eprintln!("FAIL: merged {shards}-shard outcome diverged on the snapshot budget");
        std::process::exit(1);
    }
    let shard_wall_ms = slowest_shard_ms + merge_ms;
    println!(
        "monte-carlo {shards} shards: slowest shard {slowest_shard_ms:.0} ms + merge \
         {merge_ms:.1} ms = {shard_wall_ms:.0} ms vs single-process {single_ms:.0} ms \
         ({:.2}x)",
        single_ms / shard_wall_ms.max(f64::MIN_POSITIVE)
    );

    let mut entry = ConfigValue::table();
    entry.insert("label", ConfigValue::Str(args.label.clone()));
    entry.insert(
        "mode",
        ConfigValue::Str(if args.quick { "quick" } else { "full" }.to_string()),
    );
    entry.insert("date", ConfigValue::Str(nasaic_bench::today_utc()));
    entry.insert("scenario", ConfigValue::Str(scenario.name.clone()));
    entry.insert("seed", ConfigValue::Integer(scenario.seed as i64));
    entry.insert(
        "episodes",
        ConfigValue::Integer(scenario.search.episodes as i64),
    );
    entry.insert(
        "hardware_trials",
        ConfigValue::Integer(scenario.search.hardware_trials as i64),
    );
    entry.insert("plain_wall_ms", ConfigValue::Float(plain_ms.round()));
    entry.insert(
        "checkpointed_wall_ms",
        ConfigValue::Float(checkpointed_ms.round()),
    );
    entry.insert("checkpoints", ConfigValue::Integer(count as i64));
    entry.insert(
        "checkpoint_overhead_us",
        ConfigValue::Float(overhead_us.round()),
    );
    entry.insert("head_bytes", ConfigValue::Integer(head_bytes as i64));
    entry.insert("journal_bytes", ConfigValue::Integer(journal_bytes as i64));
    entry.insert(
        "resume_progress",
        ConfigValue::Integer(parsed.progress as i64),
    );
    entry.insert("resume_wall_ms", ConfigValue::Float(resume_ms.round()));
    entry.insert("shards", ConfigValue::Integer(shards as i64));
    entry.insert(
        "single_process_wall_ms",
        ConfigValue::Float(single_ms.round()),
    );
    entry.insert(
        "slowest_shard_wall_ms",
        ConfigValue::Float(slowest_shard_ms.round()),
    );
    entry.insert(
        "merge_wall_ms",
        ConfigValue::Float((merge_ms * 1e1).round() / 1e1),
    );
    entry.insert(
        "shard_speedup",
        ConfigValue::Float(
            ((single_ms / shard_wall_ms.max(f64::MIN_POSITIVE)) * 1e2).round() / 1e2,
        ),
    );
    entry.insert("identity_gate", ConfigValue::Str("ok".to_string()));

    let mut root = match std::fs::read_to_string(&args.output) {
        Ok(existing) => value::parse_json(&existing).unwrap_or_else(|e| {
            eprintln!("cannot parse existing {}: {e}", args.output);
            std::process::exit(1);
        }),
        Err(_) => {
            let mut fresh = ConfigValue::table();
            fresh.insert("schema", ConfigValue::Integer(1));
            fresh.insert("bench", ConfigValue::Str("resume".to_string()));
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
