//! End-to-end smoke tests of the `nasaic` CLI through its library entry
//! point (`nasaic::cli::run_command`), covering every subcommand at tiny
//! budgets plus the file-config path.

use nasaic::cli::run_command;
use nasaic::core::scenario::{registry, value, Scenario};

fn cli(args: &[&str]) -> String {
    run_command(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        .unwrap_or_else(|e| panic!("{args:?}: {e}"))
}

#[test]
fn run_w1_smoke_emits_a_parsable_json_report() {
    let json = cli(&[
        "run",
        "--scenario",
        "w1",
        "--budget-episodes",
        "2",
        "--format",
        "json",
    ]);
    let report = value::parse_json(&json).unwrap();
    assert_eq!(report.get("scenario").unwrap().as_str(), Some("w1"));
    assert_eq!(report.get("episodes").unwrap().as_integer(), Some(2));
    assert_eq!(report.get("explored").unwrap().as_integer(), Some(22));
}

#[test]
fn run_accepts_a_config_file_path() {
    let dir = std::env::temp_dir().join("nasaic-cli-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("edge.toml");
    let mut scenario = registry::get("edge-single").unwrap();
    scenario.name = "edge-from-file".to_string();
    scenario.search.episodes = 2;
    scenario.search.bound_samples = 4;
    std::fs::write(&path, scenario.to_toml_string()).unwrap();

    let csv = cli(&[
        "run",
        "--scenario",
        path.to_str().unwrap(),
        "--format",
        "csv",
    ]);
    let mut lines = csv.lines();
    assert!(lines.next().unwrap().starts_with("scenario,algorithm"));
    assert!(lines.next().unwrap().starts_with("edge-from-file,nasaic,"));
}

#[test]
fn run_resumes_into_its_own_or_a_new_checkpoint_file() {
    use nasaic::core::prelude::{
        CheckpointSink, FileCheckpointSink, NullObserver, RecordingCheckpointSink, SearchCheckpoint,
    };

    let dir = std::env::temp_dir().join(format!("nasaic-cli-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut scenario = registry::get("w1").unwrap();
    scenario.search.episodes = 4;
    let config = dir.join("w1.toml");
    std::fs::write(&config, scenario.to_toml_string()).unwrap();
    let recorder = RecordingCheckpointSink::every(1);
    scenario.run_algorithm_checkpointed(
        scenario.search.algorithm,
        &scenario.engine(),
        &NullObserver,
        None,
        &recorder,
    );
    let checkpoints = recorder.checkpoints();
    let last = checkpoints.last().unwrap();

    // A checkpoint file cut off after episode 2, as a killed run leaves it.
    let started = dir.join("a.ckpt");
    FileCheckpointSink::new(&started, 1).on_checkpoint(&checkpoints[1]);
    for target in [dir.join("b.ckpt"), started.clone()] {
        cli(&[
            "run",
            "--scenario",
            config.to_str().unwrap(),
            "--resume",
            started.to_str().unwrap(),
            "--checkpoint",
            target.to_str().unwrap(),
        ]);
        let loaded = SearchCheckpoint::load(&target).expect("the resumed run's checkpoint loads");
        assert_eq!(&loaded, last, "resumed into {}", target.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_runs_selected_algorithms_as_csv() {
    let csv = cli(&[
        "compare",
        "--scenario",
        "w3",
        "--budget-episodes",
        "2",
        "--algorithms",
        "nasaic,monte-carlo,hill-climb",
        "--format",
        "csv",
    ]);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 4, "header + 3 algorithm rows:\n{csv}");
    assert!(lines[1].starts_with("w3,nasaic,"));
    assert!(lines[2].starts_with("w3,monte-carlo,"));
    assert!(lines[3].starts_with("w3,hill-climb,"));
}

#[test]
fn show_output_is_a_loadable_config() {
    for name in registry::names() {
        let toml = cli(&["show", "--scenario", name]);
        let reparsed =
            Scenario::from_toml_str(&toml).unwrap_or_else(|e| panic!("show {name}: {e}"));
        assert_eq!(reparsed, registry::get(name).unwrap());
    }
}

#[test]
fn run_with_trace_streams_parseable_deterministic_json_lines() {
    let dir = std::env::temp_dir().join("nasaic-cli-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("w1-trace.jsonl");

    let run = |path: &std::path::Path| {
        cli(&[
            "run",
            "--scenario",
            "w1",
            "--budget-episodes",
            "2",
            "--format",
            "json",
            "--trace",
            path.to_str().unwrap(),
        ]);
        std::fs::read_to_string(path).unwrap()
    };
    let trace = run(&trace_path);

    // Every line is standalone JSON with an event tag and a monotonic
    // timestamp (trace schema v2).
    let lines: Vec<&str> = trace.lines().collect();
    assert!(!lines.is_empty());
    let mut kinds = Vec::new();
    let mut last_elapsed = 0i64;
    for line in &lines {
        let event = value::parse_json(line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
        kinds.push(event.get("event").unwrap().as_str().unwrap().to_string());
        let elapsed = event
            .get("elapsed_ms")
            .unwrap_or_else(|| panic!("line lacks elapsed_ms: `{line}`"))
            .as_integer()
            .unwrap();
        assert!(elapsed >= last_elapsed, "elapsed_ms went backwards");
        last_elapsed = elapsed;
    }
    // Every declared episode is covered and the stream ends with the
    // final summary.
    assert_eq!(
        kinds.iter().filter(|k| *k == "episode_evaluated").count(),
        2
    );
    assert_eq!(kinds.last().map(String::as_str), Some("search_finished"));

    // Same seed, same scenario => identical trace, modulo the wall-clock
    // `elapsed_ms` timestamps (the only non-deterministic field).
    let strip_timestamps = |text: &str| -> Vec<String> {
        text.lines()
            .map(|line| {
                let mut event = value::parse_json(line).unwrap();
                event.remove("elapsed_ms").expect("schema v2 timestamp");
                value::to_json_compact(&event)
            })
            .collect()
    };
    let second_path = dir.join("w1-trace-2.jsonl");
    let second = run(&second_path);
    assert_eq!(
        strip_timestamps(&trace),
        strip_timestamps(&second),
        "trace stream is not deterministic"
    );
}

#[test]
fn run_reports_the_scheduler_tier_in_every_format() {
    // Default policy: the paper's ratio heuristic, reported as such.
    let json = cli(&[
        "run",
        "--scenario",
        "w1",
        "--budget-episodes",
        "2",
        "--format",
        "json",
    ]);
    let report = value::parse_json(&json).unwrap();
    assert_eq!(
        report.get("sched_policy").unwrap().as_str(),
        Some("heuristic")
    );
    assert_eq!(
        report.get("sched_tier").unwrap().as_str(),
        Some("heuristic")
    );

    // A generated scenario whose instances cross EXACT_LAYER_LIMIT runs
    // policy auto and must report the beam tier with a reason naming the
    // crossed limit — the silent `None` tier edge this PR closes.
    let dir = std::env::temp_dir().join("nasaic-cli-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("gen-beam.toml");
    let toml = cli(&["gen", "--seed", "5", "--layers", "40", "--subs", "2"]);
    std::fs::write(&path, &toml).unwrap();
    let path = path.to_str().unwrap();

    let json = cli(&[
        "run",
        "--scenario",
        path,
        "--budget-episodes",
        "2",
        "--format",
        "json",
    ]);
    let report = value::parse_json(&json).unwrap();
    assert_eq!(report.get("sched_policy").unwrap().as_str(), Some("auto"));
    assert_eq!(report.get("sched_tier").unwrap().as_str(), Some("beam"));
    let reason = report.get("sched_tier_reason").unwrap().as_str().unwrap();
    assert!(reason.contains("EXACT_LAYER_LIMIT"), "{reason}");

    // The same three columns close every CSV row...
    let csv = cli(&[
        "run",
        "--scenario",
        path,
        "--budget-episodes",
        "2",
        "--format",
        "csv",
    ]);
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    assert!(
        header.ends_with("sched_policy,sched_tier,sched_tier_reason"),
        "{header}"
    );
    assert!(lines.next().unwrap().contains(",auto,beam,"), "{csv}");

    // ...and the text summary names tier and policy on one line.
    let text = cli(&["run", "--scenario", path, "--budget-episodes", "2"]);
    assert!(
        text.contains("scheduler: beam tier under policy auto"),
        "{text}"
    );
}

#[test]
fn trace_does_not_apply_to_other_subcommands() {
    let err = run_command(&[
        "compare".to_string(),
        "--scenario".to_string(),
        "w3".to_string(),
        "--trace".to_string(),
        "/tmp/t.jsonl".to_string(),
    ])
    .unwrap_err();
    assert!(err.to_string().contains("does not apply"), "{err}");
}

#[test]
fn errors_are_reported_not_panicked() {
    let err = run_command(&[
        "run".to_string(),
        "--scenario".to_string(),
        "nope".to_string(),
    ])
    .unwrap_err();
    assert!(err.to_string().contains("neither"), "{err}");
}

#[test]
fn a_resume_from_a_record_that_does_not_fit_its_backbone_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("nasaic-cli-bad-record-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let head = dir.join("w3.ckpt");
    let args = |flag: &'static str| {
        [
            "run",
            "--scenario",
            "w3",
            "--algorithm",
            "monte-carlo",
            "--budget-episodes",
            "2",
            flag,
            head.to_str().unwrap(),
        ]
    };
    cli(&args("--checkpoint"));
    // The first journaled record's first architecture becomes a one-entry
    // ResNet vector, which no ResNet configuration accepts.
    let journal = nasaic::core::checkpoint::journal_path(&head);
    let text = std::fs::read_to_string(&journal).unwrap();
    let start = text.find("\"arch_values\":[[").unwrap() + "\"arch_values\":[[".len();
    let end = start + text[start..].find(']').unwrap();
    let corrupted = format!("{}1{}", &text[..start], &text[end..]);
    std::fs::write(&journal, corrupted).unwrap();

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_nasaic"))
        .args(args("--resume"))
        .output()
        .expect("run nasaic");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("bad checkpoint"), "{stderr}");
    assert!(stderr.contains("record 0"), "{stderr}");
    assert!(stderr.contains("odd length >= 3, got 1"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
