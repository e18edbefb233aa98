//! Integration tests of `nasaic serve`: end-to-end socket round trips,
//! shared warm engines under concurrent clients, backpressure,
//! cancellation, cache bounds, warm restarts and crash durability.
//!
//! Most tests run the daemon in-process ([`Daemon::start`] on an ephemeral
//! port); the crash-durability test spawns the real binary and SIGKILLs it
//! mid-job to prove the journal + checkpoint machinery resumes
//! bit-identically.

use nasaic::serve::{Client, Daemon, Request, ServeConfig};
use nasaic_core::algorithm::NullObserver;
use nasaic_core::checkpoint::{
    journal_path, tmp_path, FileCheckpointSink, RecordingCheckpointSink,
};
use nasaic_core::scenario::generate::GeneratorSpec;
use nasaic_core::scenario::value::{parse_json, to_json, ConfigValue};
use nasaic_core::scenario::{registry, Algorithm, Scenario};
use std::path::{Path, PathBuf};

/// A fast scenario: small budgets so each job takes well under a second.
fn quick_scenario(seed: u64) -> Scenario {
    let mut scenario = registry::get("w1").expect("built-in scenario");
    scenario.search.episodes = 6;
    scenario.search.hardware_trials = 2;
    scenario.search.bound_samples = 6;
    scenario.seed = seed;
    scenario
}

fn ephemeral_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeConfig::default()
    }
}

/// A fresh state directory for one test, removed when the guard drops,
/// so a failing test cleans up as well as a passing one.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

fn temp_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("nasaic-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    TempDir(dir)
}

fn shutdown(addr: &str) -> String {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    let response = client.request(&Request::Shutdown).expect("shutdown");
    assert_eq!(
        response.get("ok").and_then(ConfigValue::as_bool),
        Some(true)
    );
    String::new()
}

/// Fields of a report that legitimately differ between a daemon job and a
/// direct run: wall time always; cache hit/miss/entry/eviction statistics
/// whenever the engine was warm (shared) rather than cold.
const NONDETERMINISTIC_FIELDS: &[&str] = &[
    "wall_ms",
    "cache_hit_rate",
    "accuracy_hit_rate",
    "hardware_hit_rate",
    "accuracy_hits",
    "accuracy_misses",
    "hardware_hits",
    "hardware_misses",
    "accuracy_entries",
    "hardware_entries",
    "accuracy_evictions",
    "hardware_evictions",
    "accuracy_capacity",
    "hardware_capacity",
];

/// Strip the timing/cache fields, keeping the search outcome itself.
fn outcome_only(report: &ConfigValue) -> ConfigValue {
    let mut stripped = report.clone();
    for field in NONDETERMINISTIC_FIELDS {
        stripped.remove(field);
    }
    stripped
}

#[test]
fn submitted_job_matches_a_direct_run_bit_for_bit() {
    let handle = Daemon::start(ephemeral_config()).expect("daemon starts");
    let addr = handle.addr().to_string();
    let scenario = quick_scenario(41);

    let mut events = Vec::new();
    let mut client = Client::connect(&addr).expect("connect");
    let response = client
        .submit_watch(scenario.to_value(), |event| events.push(event.clone()))
        .expect("watched submit");
    assert_eq!(
        response.get("ok").and_then(ConfigValue::as_bool),
        Some(true),
        "{response:?}"
    );
    assert_eq!(
        response.get("state").and_then(ConfigValue::as_str),
        Some("finished")
    );
    let report = response.get("report").expect("report in response");

    // The stream: first the queued ack, then incumbent events tagged with
    // the job id.
    assert!(!events.is_empty(), "expected at least the submit ack");
    assert_eq!(
        events[0].get("state").and_then(ConfigValue::as_str),
        Some("queued")
    );
    let incumbents: Vec<_> = events
        .iter()
        .filter(|e| e.get("event").and_then(ConfigValue::as_str) == Some("new_incumbent"))
        .collect();
    assert!(
        !incumbents.is_empty(),
        "a fresh search must improve its incumbent at least once"
    );
    for event in &incumbents {
        assert_eq!(
            event.get("job").and_then(ConfigValue::as_integer),
            response.get("job").and_then(ConfigValue::as_integer)
        );
    }

    // Bit-identical to the same scenario run directly, engine and all.
    let direct = scenario.run_report().to_value();
    assert_eq!(outcome_only(report), outcome_only(&direct));

    shutdown(&addr);
    handle.join().expect("clean shutdown");
}

#[test]
fn concurrent_clients_share_one_warm_engine_and_get_their_own_results() {
    let handle = Daemon::start(ephemeral_config()).expect("daemon starts");
    let addr = handle.addr().to_string();

    // Four clients, same scenario identity (same engine), different seeds.
    let seeds: Vec<u64> = vec![11, 22, 33, 44];
    let threads: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let response = client
                    .submit_watch(quick_scenario(seed).to_value(), |_| {})
                    .expect("watched submit");
                (seed, response)
            })
        })
        .collect();
    let results: Vec<(u64, ConfigValue)> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    // Every client got a finished report, and each matches the direct run
    // of ITS OWN seed — no cross-talk between interleaved jobs.
    for (seed, response) in &results {
        assert_eq!(
            response.get("state").and_then(ConfigValue::as_str),
            Some("finished"),
            "seed {seed}: {response:?}"
        );
        let report = response.get("report").expect("report");
        let direct = quick_scenario(*seed).run_report().to_value();
        assert_eq!(
            outcome_only(report),
            outcome_only(&direct),
            "seed {seed} diverged from its direct run"
        );
    }

    // One engine served all four jobs (same scenario identity), and the
    // repeated seeds hit its warm caches.
    let mut client = Client::connect(&addr).expect("connect");
    let cache = client.request(&Request::ShowCache).expect("show cache");
    let engines = cache
        .get("engines")
        .and_then(ConfigValue::as_array)
        .expect("engines array");
    assert_eq!(engines.len(), 1, "one scenario identity, one engine");
    let stats = engines[0].get("stats").expect("stats");
    let hits = stats
        .get("accuracy_hits")
        .and_then(ConfigValue::as_integer)
        .unwrap_or(0)
        + stats
            .get("hardware_hits")
            .and_then(ConfigValue::as_integer)
            .unwrap_or(0);
    assert!(hits > 0, "shared engine saw no cache hits: {stats:?}");

    shutdown(&addr);
    handle.join().expect("clean shutdown");
}

#[test]
fn full_queue_rejects_submits_with_a_reason() {
    // One worker and a zero-length queue: the first job occupies the
    // worker, any further submit while it is queued/running is rejected.
    let config = ServeConfig {
        queue_capacity: 0,
        workers: 1,
        ..ephemeral_config()
    };
    let handle = Daemon::start(config).expect("daemon starts");
    let addr = handle.addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    let response = client
        .request(&Request::Submit {
            scenario: quick_scenario(1).to_value(),
            watch: false,
        })
        .expect("submit");
    assert_eq!(
        response.get("ok").and_then(ConfigValue::as_bool),
        Some(false)
    );
    let reason = response
        .get("error")
        .and_then(ConfigValue::as_str)
        .expect("reject reason");
    assert!(reason.contains("queue full"), "{reason}");
    assert!(reason.contains("--queue-capacity"), "{reason}");

    shutdown(&addr);
    handle.join().expect("clean shutdown");
}

#[test]
fn deeply_nested_request_is_rejected_and_the_daemon_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};

    let handle = Daemon::start(ephemeral_config()).expect("daemon starts");
    let addr = handle.addr().to_string();

    // One line nesting 100k arrays: an unbounded recursive parser
    // overflows its thread's stack and aborts the whole daemon.
    let depth = 100_000;
    let line = format!("{{\"ping\":{}{}}}\n", "[".repeat(depth), "]".repeat(depth));
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.write_all(line.as_bytes()).expect("send nested line");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    let response = nasaic_core::scenario::value::parse_json(&response).expect("JSON response");
    assert_eq!(
        response.get("ok").and_then(ConfigValue::as_bool),
        Some(false)
    );
    let error = response
        .get("error")
        .and_then(ConfigValue::as_str)
        .expect("error message");
    assert!(error.contains("nest deeper than 64"), "{error}");

    // The same daemon still answers, on a fresh connection.
    let mut client = Client::connect(&addr).expect("connect after the nested line");
    let pong = client.request(&Request::Ping).expect("ping");
    assert_eq!(pong.get("ok").and_then(ConfigValue::as_bool), Some(true));

    shutdown(&addr);
    handle.join().expect("clean shutdown");
}

#[test]
fn oversized_request_line_is_rejected_and_the_daemon_keeps_serving() {
    use nasaic::serve::protocol::MAX_REQUEST_LINE;
    use std::io::{BufRead, BufReader, Write};

    let handle = Daemon::start(ephemeral_config()).expect("daemon starts");
    let addr = handle.addr().to_string();

    // Twice the cap and no newline: a reader that waits for the newline
    // grows its buffer for as long as the client keeps sending.
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let sender = std::thread::spawn(move || {
        // The daemon discards the rest of the line before it hangs up.
        writer
            .write_all(&vec![b'x'; 2 * MAX_REQUEST_LINE])
            .expect("the daemon takes the whole line");
        writer
            .shutdown(std::net::Shutdown::Write)
            .expect("end the request");
    });
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    let response = nasaic_core::scenario::value::parse_json(&response).expect("JSON response");
    assert_eq!(
        response.get("ok").and_then(ConfigValue::as_bool),
        Some(false)
    );
    let error = response
        .get("error")
        .and_then(ConfigValue::as_str)
        .expect("error message");
    assert!(
        error.contains(&format!("exceeds the {MAX_REQUEST_LINE}-byte limit")),
        "{error}"
    );
    sender.join().expect("sender thread");
    // The answer is followed by a clean end of stream, not a reset.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("end of stream"), 0);

    // The same daemon still answers, on a fresh connection.
    let mut client = Client::connect(&addr).expect("connect after the oversized line");
    let pong = client.request(&Request::Ping).expect("ping");
    assert_eq!(pong.get("ok").and_then(ConfigValue::as_bool), Some(true));

    shutdown(&addr);
    handle.join().expect("clean shutdown");
}

/// Lines in this process's memory map.  Every live or unjoined thread adds
/// its stack (and a guard page) to it.
#[cfg(target_os = "linux")]
fn mapping_count() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn one_ping_connections_give_their_handler_threads_back() {
    let handle = Daemon::start(ephemeral_config()).expect("daemon starts");
    let addr = handle.addr().to_string();

    // `nasaic client` opens one connection per request.  A daemon that
    // keeps every finished handler thread unjoined grows its map by two
    // lines per connection, until thread spawns fail at the kernel's
    // mapping limit.
    let before = mapping_count();
    for _ in 0..2_000 {
        let mut client = Client::connect(&addr).expect("connect");
        let pong = client.request(&Request::Ping).expect("ping");
        assert_eq!(pong.get("ok").and_then(ConfigValue::as_bool), Some(true));
    }
    let grown = mapping_count().saturating_sub(before);
    assert!(
        grown < 400,
        "2000 connections grew the map by {grown} lines"
    );

    let mut client = Client::connect(&addr).expect("connect after the connections");
    let pong = client.request(&Request::Ping).expect("ping");
    assert_eq!(pong.get("ok").and_then(ConfigValue::as_bool), Some(true));

    shutdown(&addr);
    handle.join().expect("clean shutdown");
}

#[test]
fn cancel_stops_a_running_job_and_reports_cancelled() {
    let handle = Daemon::start(ephemeral_config()).expect("daemon starts");
    let addr = handle.addr().to_string();

    // A long job (many episodes) so the cancel lands while it runs.
    let mut scenario = quick_scenario(7);
    scenario.search.episodes = 500;

    let watcher = {
        let addr = addr.clone();
        let value = scenario.to_value();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.submit_watch(value, |_| {}).expect("watched submit")
        })
    };

    // Wait until the daemon reports the job running, then cancel it.
    let mut client = Client::connect(&addr).expect("connect");
    let job_id = loop {
        let jobs = client.request(&Request::ShowJobs).expect("show jobs");
        let rows = jobs
            .get("jobs")
            .and_then(ConfigValue::as_array)
            .expect("jobs array");
        if let Some(row) = rows.iter().find(|row| {
            matches!(
                row.get("state").and_then(ConfigValue::as_str),
                Some("running") | Some("queued")
            )
        }) {
            break row.get("job").and_then(ConfigValue::as_integer).unwrap() as u64;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    let response = client
        .request(&Request::Cancel { job: job_id })
        .expect("cancel");
    assert_eq!(
        response.get("ok").and_then(ConfigValue::as_bool),
        Some(true)
    );

    let final_response = watcher.join().expect("watcher thread");
    assert_eq!(
        final_response.get("state").and_then(ConfigValue::as_str),
        Some("cancelled"),
        "{final_response:?}"
    );

    // The terminal state is queryable and a second cancel is rejected.
    let incumbent = client
        .request(&Request::ShowIncumbent { job: job_id })
        .expect("show incumbent");
    assert_eq!(
        incumbent.get("state").and_then(ConfigValue::as_str),
        Some("cancelled")
    );
    let again = client
        .request(&Request::Cancel { job: job_id })
        .expect("cancel again");
    assert_eq!(again.get("ok").and_then(ConfigValue::as_bool), Some(false));

    shutdown(&addr);
    handle.join().expect("clean shutdown");
}

/// A scenario on which every algorithm runs for seconds: six generated
/// networks of about 150 layers in all, on three sub-accelerators.  Even
/// hill climbing, which stops at its first local optimum whatever its
/// budget, takes about 5 s on it in a release build.
fn slow_scenario(algorithm: Algorithm) -> Scenario {
    let mut spec = GeneratorSpec::sized(150, 3, 3);
    spec.layer_range = (145, 150);
    spec.fit_network_count();
    spec.network_count = 6;
    let mut scenario = spec.generate().expect("the spec generates").scenario;
    scenario.search.algorithm = algorithm;
    scenario.search.episodes = 5_000;
    scenario
}

/// Submit `scenario` without watching; return its job id.
fn submit(client: &mut Client, scenario: &Scenario) -> i64 {
    let response = client
        .request(&Request::Submit {
            scenario: scenario.to_value(),
            watch: false,
        })
        .expect("submit");
    response
        .get("job")
        .and_then(ConfigValue::as_integer)
        .unwrap_or_else(|| panic!("submit rejected: {response:?}"))
}

/// Poll job `job_id` until it reads `state`, failing on any state but
/// `passing` on the way.
fn wait_for_state(client: &mut Client, job_id: i64, passing: &[&str], state: &str) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let row = job_row(client, job_id);
        match row.get("state").and_then(ConfigValue::as_str) {
            Some(now) if now == state => return,
            Some(now) if passing.contains(&now) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "job {job_id} never reached {state}: {row:?}"
                );
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            _ => panic!("job {job_id} ended other than {state}: {row:?}"),
        }
    }
}

#[test]
fn a_running_job_of_every_algorithm_stops_on_cancel_and_its_worker_keeps_serving() {
    let state_dir = temp_dir("cancel-every-algorithm");
    let config = ServeConfig {
        state_dir: Some(state_dir.to_path_buf()),
        workers: 1,
        ..ephemeral_config()
    };
    let handle = Daemon::start(config).expect("daemon starts");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    for algorithm in Algorithm::all() {
        let job_id = submit(&mut client, &slow_scenario(algorithm));
        wait_for_state(&mut client, job_id, &["queued"], "running");
        let response = client
            .request(&Request::Cancel { job: job_id as u64 })
            .expect("cancel");
        assert_eq!(
            response.get("ok").and_then(ConfigValue::as_bool),
            Some(true),
            "{algorithm}: {response:?}"
        );
        wait_for_state(&mut client, job_id, &["running"], "cancelled");
    }
    // The one worker is free again, and its next job matches a direct run.
    let scenario = quick_scenario(72);
    let expected = scenario.run_report().to_value();
    let response = client
        .submit_watch(scenario.to_value(), |_| {})
        .expect("a small job");
    assert_eq!(
        response.get("state").and_then(ConfigValue::as_str),
        Some("finished"),
        "{response:?}"
    );
    assert_eq!(
        outcome_only(response.get("report").expect("report")),
        outcome_only(&expected)
    );
    shutdown(&addr);
    handle.join().expect("clean shutdown");
}

#[test]
fn cancelling_a_queued_job_ends_it_at_once_and_frees_its_queue_slot() {
    let state_dir = temp_dir("cancel-queued");
    let config = ServeConfig {
        state_dir: Some(state_dir.to_path_buf()),
        workers: 1,
        queue_capacity: 1,
        ..ephemeral_config()
    };
    let handle = Daemon::start(config.clone()).expect("daemon starts");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    // Job 1 holds the one worker; job 2 waits in the one queue slot.
    let running = submit(&mut client, &slow_scenario(Algorithm::Nasaic));
    wait_for_state(&mut client, running, &["queued"], "running");
    let queued = submit(&mut client, &quick_scenario(91));
    assert_eq!(
        job_row(&mut client, queued)
            .get("state")
            .and_then(ConfigValue::as_str),
        Some("queued")
    );
    let cancels = counter(&mut client, "nasaic_serve_cancels_total").unwrap_or(0);
    let response = client
        .request(&Request::Cancel { job: queued as u64 })
        .expect("cancel");
    assert_eq!(
        response.get("ok").and_then(ConfigValue::as_bool),
        Some(true),
        "{response:?}"
    );
    // Ended at once, counted, persisted, and out of the queue: the next
    // submit takes its slot.
    assert_eq!(
        job_row(&mut client, queued)
            .get("state")
            .and_then(ConfigValue::as_str),
        Some("cancelled")
    );
    assert!(counter(&mut client, "nasaic_serve_cancels_total").unwrap_or(0) > cancels);
    let result =
        std::fs::read_to_string(state_dir.join("jobs").join(format!("{queued}.result.json")))
            .expect("the cancelled job's result is persisted");
    assert!(result.contains("\"cancelled\""), "{result}");
    let next = submit(&mut client, &quick_scenario(92));
    for job in [next, running] {
        client
            .request(&Request::Cancel { job: job as u64 })
            .expect("cancel");
        wait_for_state(&mut client, job, &["queued", "running"], "cancelled");
    }
    shutdown(&addr);
    handle.join().expect("clean shutdown");

    // A restart does not run the cancelled job.
    let handle = Daemon::start(config).expect("daemon restarts");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("reconnect");
    for job in [running, queued, next] {
        assert_eq!(
            job_row(&mut client, job)
                .get("state")
                .and_then(ConfigValue::as_str),
            Some("cancelled"),
            "job {job}"
        );
    }
    shutdown(&addr);
    handle.join().expect("clean shutdown");
}

#[test]
fn forced_small_cache_bounds_evict_without_changing_outcomes() {
    let config = ServeConfig {
        accuracy_capacity: 2,
        hardware_capacity: 2,
        ..ephemeral_config()
    };
    let handle = Daemon::start(config).expect("daemon starts");
    let addr = handle.addr().to_string();

    let scenario = quick_scenario(17);
    let mut client = Client::connect(&addr).expect("connect");
    let response = client
        .submit_watch(scenario.to_value(), |_| {})
        .expect("watched submit");
    let report = response.get("report").expect("report");

    // Outcome identical to an unbounded direct run…
    let direct = scenario.run_report().to_value();
    assert_eq!(outcome_only(report), outcome_only(&direct));

    // …while the bound actually evicted (visible in the report and in
    // `show cache`).
    let evictions = report
        .get("accuracy_evictions")
        .and_then(ConfigValue::as_integer)
        .unwrap_or(0)
        + report
            .get("hardware_evictions")
            .and_then(ConfigValue::as_integer)
            .unwrap_or(0);
    assert!(evictions > 0, "capacity 2 must evict: {report:?}");
    let cache = client.request(&Request::ShowCache).expect("show cache");
    let stats = cache
        .get("engines")
        .and_then(ConfigValue::as_array)
        .unwrap()[0]
        .get("stats")
        .expect("stats");
    assert_eq!(
        stats
            .get("accuracy_capacity")
            .and_then(ConfigValue::as_integer),
        Some(2)
    );
    assert!(
        stats
            .get("accuracy_entries")
            .and_then(ConfigValue::as_integer)
            .unwrap()
            <= 2
    );

    shutdown(&addr);
    handle.join().expect("clean shutdown");
}

#[test]
fn warm_restart_imports_caches_and_changes_wall_time_only() {
    let state_dir = temp_dir("warm-restart");
    let scenario = quick_scenario(29);

    // First daemon: run the job cold, shut down gracefully (persists the
    // caches to state_dir/caches.json).
    let config = ServeConfig {
        state_dir: Some(state_dir.to_path_buf()),
        ..ephemeral_config()
    };
    let handle = Daemon::start(config.clone()).expect("first daemon");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let first = client
        .submit_watch(scenario.to_value(), |_| {})
        .expect("first run");
    shutdown(&addr);
    handle.join().expect("clean shutdown");
    assert!(
        state_dir.join("caches.json").exists(),
        "graceful shutdown must persist caches"
    );

    // Second daemon over the same state dir: the re-submitted job hits the
    // imported caches (recompute nothing) and produces the same outcome.
    let handle = Daemon::start(config).expect("second daemon");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let second = client
        .submit_watch(scenario.to_value(), |_| {})
        .expect("second run");
    let first_report = first.get("report").expect("first report");
    let second_report = second.get("report").expect("second report");
    assert_eq!(
        outcome_only(first_report),
        outcome_only(&second_report.clone()),
        "warm restart changed the outcome"
    );
    let hit_rate = match second_report.get("accuracy_hit_rate") {
        Some(ConfigValue::Float(rate)) => *rate,
        Some(ConfigValue::Integer(rate)) => *rate as f64,
        other => panic!("report lacks accuracy_hit_rate: {other:?}"),
    };
    assert_eq!(hit_rate, 1.0, "warm accuracy cache must serve every query");

    shutdown(&addr);
    handle.join().expect("clean shutdown");
}

#[test]
fn a_checkpoint_record_that_cannot_be_rebuilt_reruns_its_job_and_the_worker_keeps_serving() {
    let state_dir = temp_dir("bad-record");
    let jobs_dir = state_dir.join("jobs");
    std::fs::create_dir_all(&jobs_dir).expect("create jobs dir");
    let scenario = quick_scenario(67);
    let expected = scenario.run_report().to_value();

    // A journaled job with a checkpoint, as a killed daemon leaves them...
    let mut entry = ConfigValue::table();
    entry.insert("version", ConfigValue::Integer(1));
    entry.insert("job", ConfigValue::Integer(1));
    entry.insert("scenario", scenario.to_value());
    std::fs::write(jobs_dir.join("1.job.json"), to_json(&entry)).expect("journal the job");
    let ckpt = jobs_dir.join("1.ckpt.json");
    scenario.run_algorithm_checkpointed(
        scenario.search.algorithm,
        &scenario.engine(),
        &NullObserver,
        None,
        &FileCheckpointSink::new(&ckpt, 1),
    );
    // ...whose first record's accelerator has no sub-accelerators, which
    // `Accelerator::new` asserts against.
    let journal = journal_path(&ckpt);
    let text = std::fs::read_to_string(&journal).expect("journal");
    let start = text.find("\"subs\":[").expect("a record's subs") + "\"subs\":[".len();
    let end = start + text[start..].find("]]").expect("the end of its subs") + 1;
    std::fs::write(&journal, format!("{}{}", &text[..start], &text[end..]))
        .expect("empty the first record's subs");

    // One worker: if replaying the records unwound it, the job would stay
    // running and the second job below would never start.
    let config = ServeConfig {
        state_dir: Some(state_dir.to_path_buf()),
        workers: 1,
        ..ephemeral_config()
    };
    let handle = Daemon::start(config).expect("daemon starts");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let report = wait_for_result(&mut client, &state_dir, 1);
    assert_eq!(
        outcome_only(&report),
        outcome_only(&expected),
        "the rerun diverged from the direct run"
    );
    assert_eq!(
        counter(&mut client, "nasaic_serve_resumes_total").unwrap_or(0),
        0,
        "a checkpoint whose records cannot be rebuilt must not be resumed"
    );
    let pong = client.request(&Request::Ping).expect("ping");
    assert_eq!(pong.get("ok").and_then(ConfigValue::as_bool), Some(true));
    let next = client
        .submit_watch(quick_scenario(68).to_value(), |_| {})
        .expect("a second job");
    assert_eq!(
        next.get("state").and_then(ConfigValue::as_str),
        Some("finished"),
        "{next:?}"
    );

    shutdown(&addr);
    handle.join().expect("clean shutdown");
}

#[test]
fn a_corrupt_cache_export_is_discarded_and_the_worker_keeps_serving() {
    let state_dir = temp_dir("bad-caches");
    let scenario = quick_scenario(79);
    let expected = scenario.run_report().to_value();

    // A graceful shutdown's cache export...
    let config = ServeConfig {
        state_dir: Some(state_dir.to_path_buf()),
        ..ephemeral_config()
    };
    let handle = Daemon::start(config).expect("first daemon");
    let addr = handle.addr().to_string();
    Client::connect(&addr)
        .expect("connect")
        .submit_watch(scenario.to_value(), |_| {})
        .expect("first run");
    shutdown(&addr);
    handle.join().expect("clean shutdown");
    // ...whose first hardware entry's accelerator has no sub-accelerators,
    // which `Accelerator::new` asserts against.
    let caches = state_dir.join("caches.json");
    let mut root = parse_json(&std::fs::read_to_string(&caches).expect("caches.json"))
        .expect("caches.json parses");
    let mut engines = root
        .get("engines")
        .and_then(ConfigValue::as_array)
        .expect("engines")
        .to_vec();
    let mut export = engines[0]
        .get("caches")
        .expect("an engine's caches")
        .clone();
    let mut hardware = export
        .get("hardware")
        .and_then(ConfigValue::as_array)
        .expect("hardware")
        .to_vec();
    hardware[0].insert("subs", ConfigValue::Array(Vec::new()));
    export.insert("hardware", ConfigValue::Array(hardware));
    engines[0].insert("caches", export);
    root.insert("engines", ConfigValue::Array(engines));
    std::fs::write(&caches, to_json(&root)).expect("corrupt caches.json");

    // One worker: if the import unwound it, the job would stay running and
    // nothing after it would run.
    let log_path = state_dir.join("stderr.log");
    let log = std::fs::File::create(&log_path).expect("create stderr log");
    let (mut child, addr) = spawn_daemon_with_stderr(&state_dir, &["--workers", "1"], log.into());
    let mut client = Client::connect(&addr).expect("connect");
    let submitted = client
        .request(&Request::Submit {
            scenario: scenario.to_value(),
            watch: false,
        })
        .expect("submit");
    let job_id = submitted
        .get("job")
        .and_then(ConfigValue::as_integer)
        .expect("job id") as u64;
    let report = wait_for_result(&mut client, &state_dir, job_id);
    assert_eq!(
        outcome_only(&report),
        outcome_only(&expected),
        "the job on a discarded cache diverged from the direct run"
    );
    let engines = client.request(&Request::ShowCache).expect("show cache");
    assert!(engines.get("engines").is_some(), "{engines:?}");
    let next = client
        .submit_watch(quick_scenario(80).to_value(), |_| {})
        .expect("a second job");
    assert_eq!(
        next.get("state").and_then(ConfigValue::as_str),
        Some("finished"),
        "{next:?}"
    );
    let _ = client.request(&Request::Shutdown);
    let status = child.wait().expect("daemon exits after shutdown");
    let stderr = std::fs::read_to_string(&log_path).expect("read stderr log");
    assert!(status.success(), "{status}: {stderr}");
    assert!(
        stderr.contains("discarding persisted caches") && stderr.contains("no sub-accelerators"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Job `job_id`'s `show jobs` row.
fn job_row(client: &mut Client, job_id: i64) -> ConfigValue {
    let jobs = client.request(&Request::ShowJobs).expect("show jobs");
    jobs.get("jobs")
        .and_then(ConfigValue::as_array)
        .expect("jobs array")
        .iter()
        .find(|row| row.get("job").and_then(ConfigValue::as_integer) == Some(job_id))
        .expect("the job's row")
        .clone()
}

#[test]
fn a_finished_jobs_checkpoints_are_between_one_and_its_progress_units() {
    let state_dir = temp_dir("checkpoint-count");
    let config = ServeConfig {
        state_dir: Some(state_dir.to_path_buf()),
        ..ephemeral_config()
    };
    let handle = Daemon::start(config).expect("daemon starts");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    for algorithm in [
        Algorithm::Nasaic,
        Algorithm::MonteCarlo,
        Algorithm::Evolutionary,
    ] {
        let mut scenario = quick_scenario(71);
        scenario.search.algorithm = algorithm;
        scenario.search.episodes = 24;
        // Every snapshot point the driver offers is one progress unit.
        let every_unit = RecordingCheckpointSink::every(1);
        scenario.run_algorithm_checkpointed(
            algorithm,
            &scenario.engine(),
            &NullObserver,
            None,
            &every_unit,
        );
        let units = every_unit.checkpoints().len() as i64;
        let response = client
            .submit_watch(scenario.to_value(), |_| {})
            .expect("watched submit");
        assert_eq!(
            response.get("state").and_then(ConfigValue::as_str),
            Some("finished"),
            "{response:?}"
        );
        assert_eq!(
            outcome_only(response.get("report").expect("report")),
            outcome_only(&scenario.run_report().to_value()),
            "{algorithm}: the checkpointed job diverged from the direct run"
        );
        let job = response
            .get("job")
            .and_then(ConfigValue::as_integer)
            .unwrap();
        let row = job_row(&mut client, job);
        let checkpoints = row.get("checkpoints").and_then(ConfigValue::as_integer);
        assert!(
            checkpoints.is_some_and(|taken| (1..=units).contains(&taken)),
            "{algorithm}: {checkpoints:?} checkpoints for {units} progress units: {row:?}"
        );
        let wall = row.get("checkpoint_ms").and_then(ConfigValue::as_float);
        assert!(wall.is_some_and(|ms| ms >= 0.0), "{row:?}");
        assert!(row.get("checkpoint_error").is_none(), "{row:?}");
    }
    shutdown(&addr);
    handle.join().expect("clean shutdown");
}

#[test]
fn a_failed_checkpoint_write_is_reported_and_its_job_still_finishes() {
    let state_dir = temp_dir("checkpoint-error");
    // A directory where job 1's journal goes fails its first checkpoint.
    std::fs::create_dir_all(journal_path(&state_dir.join("jobs").join("1.ckpt.json")))
        .expect("block the journal");
    let config = ServeConfig {
        state_dir: Some(state_dir.to_path_buf()),
        ..ephemeral_config()
    };
    let handle = Daemon::start(config).expect("daemon starts");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let scenario = quick_scenario(73);
    let response = client
        .submit_watch(scenario.to_value(), |_| {})
        .expect("watched submit");
    assert_eq!(
        response.get("job").and_then(ConfigValue::as_integer),
        Some(1)
    );
    assert_eq!(
        response.get("state").and_then(ConfigValue::as_str),
        Some("finished"),
        "{response:?}"
    );
    assert_eq!(
        outcome_only(response.get("report").expect("report")),
        outcome_only(&scenario.run_report().to_value()),
        "a failed checkpoint changed the job's outcome"
    );
    let row = job_row(&mut client, 1);
    let error = row.get("checkpoint_error").and_then(ConfigValue::as_str);
    assert!(
        error.is_some_and(|error| !error.is_empty()),
        "the row must carry the sink's error: {row:?}"
    );
    assert_eq!(
        row.get("checkpoints").and_then(ConfigValue::as_integer),
        Some(0)
    );
    // At least this job's failures: the registry is process-global.
    let failures = counter(&mut client, "nasaic_serve_checkpoint_failures_total");
    assert!(failures.is_some_and(|count| count >= 1), "{failures:?}");
    // The journal's path is a directory, so the finished job's checkpoint
    // files cannot all be removed either, and that is counted too.
    let cleanup = counter(
        &mut client,
        "nasaic_serve_checkpoint_cleanup_failures_total",
    );
    assert!(cleanup.is_some_and(|count| count >= 1), "{cleanup:?}");
    shutdown(&addr);
    handle.join().expect("clean shutdown");
}

#[test]
fn metrics_endpoint_serves_prometheus_families_after_a_job() {
    let config = ServeConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ephemeral_config()
    };
    let handle = Daemon::start(config).expect("daemon starts");
    let addr = handle.addr().to_string();
    let metrics_addr = handle.metrics_addr().expect("metrics listener bound");

    let mut client = Client::connect(&addr).expect("connect");
    let response = client
        .submit_watch(quick_scenario(61).to_value(), |_| {})
        .expect("watched submit");
    assert_eq!(
        response.get("state").and_then(ConfigValue::as_str),
        Some("finished")
    );

    // Scrape over plain TCP, exactly as Prometheus would.
    let body = {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(metrics_addr).expect("connect metrics");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
            .expect("send scrape");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read scrape");
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        assert!(
            head.contains("text/plain; version=0.0.4"),
            "exposition content type missing: {head}"
        );
        body.to_string()
    };
    for family in [
        "# TYPE nasaic_serve_queue_depth gauge",
        "# TYPE nasaic_serve_queue_wait_ms summary",
        "# TYPE nasaic_serve_job_wall_ms summary",
        // Counter value is not asserted: every daemon test in this binary
        // shares the process-global registry.
        "# TYPE nasaic_serve_submits_total counter",
        "nasaic_engine_cache_hit_ratio{cache=\"accuracy\",engine=\"W1\"}",
    ] {
        assert!(body.contains(family), "scrape lacks `{family}`:\n{body}");
    }

    // The same registry is queryable over the control socket…
    let metrics = client.request(&Request::ShowMetrics).expect("show metrics");
    let names: Vec<&str> = metrics
        .get("metrics")
        .and_then(ConfigValue::as_array)
        .expect("metrics array")
        .iter()
        .filter_map(|m| m.get("name").and_then(ConfigValue::as_str))
        .collect();
    assert!(names.contains(&"nasaic_serve_job_wall_ms"), "{names:?}");
    assert!(names.contains(&"nasaic_serve_queue_depth"), "{names:?}");

    // …and `show jobs` surfaces the same instants as per-job durations.
    let jobs = client.request(&Request::ShowJobs).expect("show jobs");
    let row = &jobs.get("jobs").and_then(ConfigValue::as_array).unwrap()[0];
    assert!(
        row.get("queue_wait_ms")
            .and_then(ConfigValue::as_integer)
            .is_some(),
        "{row:?}"
    );
    assert!(
        row.get("run_ms").and_then(ConfigValue::as_integer).unwrap() >= 0,
        "{row:?}"
    );

    shutdown(&addr);
    handle.join().expect("clean shutdown");
}

// ---------------------------------------------------------------------------
// Crash durability: the real binary, SIGKILLed mid-job.
// ---------------------------------------------------------------------------

/// A spawned `nasaic serve` process.  Dropping it kills and reaps the
/// process, so a test that fails before its `shutdown` leaves no daemon
/// behind; a test that waits for a clean exit does so through
/// [`Child::wait`](std::process::Child::wait), after which the drop finds
/// the process reaped and does nothing.
struct DaemonProcess(std::process::Child);

impl std::ops::Deref for DaemonProcess {
    type Target = std::process::Child;

    fn deref(&self) -> &std::process::Child {
        &self.0
    }
}

impl std::ops::DerefMut for DaemonProcess {
    fn deref_mut(&mut self) -> &mut std::process::Child {
        &mut self.0
    }
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        // Errors are ignored: a drop must not panic, least of all while a
        // failed test unwinds.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start the real `nasaic serve` binary on an ephemeral port, wait for the
/// addr file, and return (daemon, addr).
fn spawn_daemon(state_dir: &Path, extra: &[&str]) -> (DaemonProcess, String) {
    spawn_daemon_with_stderr(state_dir, extra, std::process::Stdio::null())
}

/// [`spawn_daemon`] with the daemon's stderr sent to `stderr`.
fn spawn_daemon_with_stderr(
    state_dir: &Path,
    extra: &[&str],
    stderr: std::process::Stdio,
) -> (DaemonProcess, String) {
    let addr_file = state_dir.join("addr");
    let _ = std::fs::remove_file(&addr_file);
    let mut command = std::process::Command::new(env!("CARGO_BIN_EXE_nasaic"));
    command
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--state-dir",
            state_dir.to_str().unwrap(),
        ])
        .args(extra)
        .stdout(std::process::Stdio::null())
        .stderr(stderr);
    let child = DaemonProcess(command.spawn().expect("spawn nasaic serve"));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            let text = text.trim().to_string();
            if !text.is_empty() {
                break text;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never wrote its addr file"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    (child, addr)
}

#[test]
fn cancelling_a_job_writes_nothing_to_the_daemons_stderr() {
    // A cancel stops the job's driver at its next snapshot point, without
    // unwinding, so the binary's stderr keeps only its "listening" line.
    let state_dir = temp_dir("cancel-stderr");
    let log_path = state_dir.join("stderr.log");
    let log = std::fs::File::create(&log_path).expect("create stderr log");
    let (mut child, addr) = spawn_daemon_with_stderr(&state_dir, &[], log.into());
    let mut scenario = quick_scenario(61);
    scenario.search.episodes = 400;
    let mut client = Client::connect(&addr).expect("connect");
    let submitted = client
        .request(&Request::Submit {
            scenario: scenario.to_value(),
            watch: false,
        })
        .expect("submit");
    let job_id = submitted
        .get("job")
        .and_then(ConfigValue::as_integer)
        .expect("job id");
    while job_row(&mut client, job_id)
        .get("state")
        .and_then(ConfigValue::as_str)
        == Some("queued")
    {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let response = client
        .request(&Request::Cancel { job: job_id as u64 })
        .expect("cancel");
    assert_eq!(
        response.get("ok").and_then(ConfigValue::as_bool),
        Some(true),
        "{response:?}"
    );
    loop {
        let state = job_row(&mut client, job_id);
        match state.get("state").and_then(ConfigValue::as_str) {
            Some("cancelled") => break,
            Some("queued" | "running") => std::thread::sleep(std::time::Duration::from_millis(10)),
            other => panic!("job ended {other:?} instead of cancelled: {state:?}"),
        }
    }
    let _ = client.request(&Request::Shutdown);
    child.wait().expect("daemon exits after shutdown");
    let stderr = std::fs::read_to_string(&log_path).expect("read stderr log");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{stderr}");
    assert!(lines[0].contains("listening"), "{stderr}");
}

#[test]
fn a_cancelled_resume_ends_cancelled_and_is_not_a_bad_checkpoint() {
    // A job killed after its first checkpoint resumes on restart; a cancel
    // then stops the resumed run, which must not be taken for a checkpoint
    // that does not decode and rerun from scratch.
    let state_dir = temp_dir("cancel-resumed");
    let (mut child, addr) = spawn_daemon(&state_dir, &["--workers", "1"]);
    let mut client = Client::connect(&addr).expect("connect");
    let job_id = submit(&mut client, &slow_scenario(Algorithm::Nasaic));
    let head = state_dir.join("jobs").join(format!("{job_id}.ckpt.json"));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    // The head under its own name, renamed there complete: a temp head may
    // still be in the middle of its write.
    while !head.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "job never checkpointed"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.kill().expect("kill daemon");
    child.wait().expect("reap daemon");

    let log_path = state_dir.join("stderr.log");
    let log = std::fs::File::create(&log_path).expect("create stderr log");
    let (mut child, addr) = spawn_daemon_with_stderr(&state_dir, &["--workers", "1"], log.into());
    let mut client = Client::connect(&addr).expect("reconnect");
    wait_for_state(&mut client, job_id, &["queued"], "running");
    client
        .request(&Request::Cancel { job: job_id as u64 })
        .expect("cancel");
    wait_for_state(&mut client, job_id, &["running"], "cancelled");
    let _ = client.request(&Request::Shutdown);
    let status = child.wait().expect("daemon exits after shutdown");
    let stderr = std::fs::read_to_string(&log_path).expect("read stderr log");
    assert!(status.success(), "{status}: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{stderr}");
    assert!(lines[0].contains("listening"), "{stderr}");
}

#[test]
fn killed_daemon_resumes_its_job_bit_identically_on_restart() {
    let state_dir = temp_dir("crash");

    // A job big enough to survive until the kill, at the daemon's own
    // cost-budgeted cadence (its first progress unit is always
    // checkpointed).
    let mut scenario = quick_scenario(53);
    scenario.search.episodes = 300;
    let expected = scenario.run_report().to_value();

    let (mut child, addr) = spawn_daemon(&state_dir, &["--workers", "1"]);

    // Submit without watching (the reply returns immediately), then wait
    // until the job has checkpointed at least once.
    let mut client = Client::connect(&addr).expect("connect");
    let submitted = client
        .request(&Request::Submit {
            scenario: scenario.to_value(),
            watch: false,
        })
        .expect("submit");
    let job_id = submitted
        .get("job")
        .and_then(ConfigValue::as_integer)
        .expect("job id") as u64;
    let ckpt = state_dir.join("jobs").join(format!("{job_id}.ckpt.json"));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    // Wait for a head that counts at least one journaled record, so the
    // journal can be cut below it further down.
    while journaled_records(&ckpt) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "job never checkpointed"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // SIGKILL: no graceful shutdown, no cache export, checkpoint mid-job.
    child.kill().expect("kill daemon");
    child.wait().expect("reap daemon");
    assert!(
        !state_dir
            .join("jobs")
            .join(format!("{job_id}.result.json"))
            .exists(),
        "the job must not have finished before the kill"
    );
    // The killed state, for a second restart below.
    let cut_dir = temp_dir("crash-cut");
    copy_jobs(&state_dir, &cut_dir);
    // And for a third: a copy in which the job's head exists only at its
    // temp name, as a kill between an unsynced sink's remove and rename
    // leaves it.
    let tmp_dir = temp_dir("crash-tmp");
    copy_jobs(&state_dir, &tmp_dir);
    let tmp_ckpt = tmp_dir.join("jobs").join(format!("{job_id}.ckpt.json"));
    if tmp_ckpt.exists() {
        std::fs::rename(&tmp_ckpt, tmp_path(&tmp_ckpt)).expect("move the head to its temp name");
    }
    assert!(!tmp_ckpt.exists() && tmp_path(&tmp_ckpt).exists());

    // Restart over the same state dir: the journaled job is re-queued and
    // resumed from its checkpoint.
    let (mut child, addr) = spawn_daemon(&state_dir, &["--workers", "1"]);
    let mut client = Client::connect(&addr).expect("reconnect");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let report = loop {
        let jobs = client.request(&Request::ShowJobs).expect("show jobs");
        let rows = jobs
            .get("jobs")
            .and_then(ConfigValue::as_array)
            .expect("jobs array");
        let row = rows
            .iter()
            .find(|row| row.get("job").and_then(ConfigValue::as_integer) == Some(job_id as i64))
            .expect("restarted daemon must remember the journaled job");
        match row.get("state").and_then(ConfigValue::as_str) {
            Some("finished") => {
                let text = std::fs::read_to_string(
                    state_dir.join("jobs").join(format!("{job_id}.result.json")),
                )
                .expect("persisted result");
                let result =
                    nasaic_core::scenario::value::parse_json(&text).expect("result parses");
                break result.get("report").expect("report").clone();
            }
            Some("failed") => panic!("resumed job failed: {row:?}"),
            _ => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "resumed job never finished"
        );
    };

    // Bit-identical to the uninterrupted run.
    assert_eq!(
        outcome_only(&report),
        outcome_only(&expected),
        "kill + resume diverged from the uninterrupted run"
    );

    // Graceful shutdown of the second daemon.
    let _ = client.request(&Request::Shutdown);
    child.wait().expect("daemon exits after shutdown");

    // Second restart, from the same killed state with the job's journal
    // cut below its head: the checkpoint does not load, so the daemon
    // reruns the job from scratch, to the same result.
    let cut_ckpt = cut_dir.join("jobs").join(format!("{job_id}.ckpt.json"));
    let counted = journaled_records(&cut_ckpt);
    let journal = journal_path(&cut_ckpt);
    let text = std::fs::read_to_string(&journal).expect("journal");
    let kept: String = text.split_inclusive('\n').take(counted - 1).collect();
    std::fs::write(&journal, kept).expect("cut the journal");
    assert!(nasaic_core::checkpoint::SearchCheckpoint::load(&cut_ckpt).is_err());

    let (mut child, addr) = spawn_daemon(&cut_dir, &["--workers", "1"]);
    let mut client = Client::connect(&addr).expect("connect");
    let report = wait_for_result(&mut client, &cut_dir, job_id);
    assert_eq!(
        outcome_only(&report),
        outcome_only(&expected),
        "a rerun after a cut journal diverged from the uninterrupted run"
    );
    let resumes = counter(&mut client, "nasaic_serve_resumes_total");
    assert_eq!(
        resumes.unwrap_or(0),
        0,
        "the cut checkpoint must not be resumed"
    );
    for leftover in [cut_ckpt.clone(), journal] {
        assert!(
            !leftover.exists(),
            "{} outlived its job",
            leftover.display()
        );
    }
    let _ = client.request(&Request::Shutdown);
    child.wait().expect("daemon exits after shutdown");

    // Third restart, from the killed state with the head only at its temp
    // name: the daemon resumes the job from it rather than rerunning it.
    let (mut child, addr) = spawn_daemon(&tmp_dir, &["--workers", "1"]);
    let mut client = Client::connect(&addr).expect("connect");
    let report = wait_for_result(&mut client, &tmp_dir, job_id);
    assert_eq!(
        outcome_only(&report),
        outcome_only(&expected),
        "a resume from the temp head diverged from the uninterrupted run"
    );
    assert_eq!(
        counter(&mut client, "nasaic_serve_resumes_total"),
        Some(1),
        "the temp head must be resumed"
    );
    for leftover in [
        tmp_ckpt.clone(),
        tmp_path(&tmp_ckpt),
        journal_path(&tmp_ckpt),
    ] {
        assert!(
            !leftover.exists(),
            "{} outlived its job",
            leftover.display()
        );
    }
    let _ = client.request(&Request::Shutdown);
    child.wait().expect("daemon exits after shutdown");
}

/// A process's resident set (`VmRSS`), in KiB.
#[cfg(target_os = "linux")]
fn resident_kib(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .expect("read the daemon's status")
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|kib| kib.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmRSS line")
}

#[cfg(target_os = "linux")]
#[test]
fn a_daemons_memory_stays_flat_once_its_engine_caches_are_full() {
    let state_dir = temp_dir("flat-rss");
    let (mut child, addr) = spawn_daemon(
        &state_dir,
        &[
            "--workers",
            "1",
            "--job-threads",
            "1",
            "--accuracy-capacity",
            "256",
            "--hardware-capacity",
            "256",
        ],
    );
    let mut client = Client::connect(&addr).expect("connect");
    // Every job draws accelerators the engine has not seen.  Its two
    // caches are full after the first few jobs, and from then on nothing
    // per design may accumulate; a finished job keeps only its row.
    let mut resident = Vec::new();
    for seed in 0..60 {
        let mut scenario = registry::get("w3").expect("built-in scenario");
        scenario.search.algorithm = Algorithm::MonteCarlo;
        scenario.search.episodes = 10;
        scenario.seed = 900 + seed;
        let response = client
            .submit_watch(scenario.to_value(), |_| {})
            .expect("watched submit");
        assert_eq!(
            response.get("state").and_then(ConfigValue::as_str),
            Some("finished"),
            "{response:?}"
        );
        resident.push(resident_kib(child.id()));
    }
    let _ = client.request(&Request::Shutdown);
    child.wait().expect("daemon exits after shutdown");
    eprintln!("daemon VmRSS after each job (KiB): {resident:?}");
    let grown = resident[59].saturating_sub(resident[4]);
    assert!(
        grown < 2048,
        "the daemon grew by {grown} KiB from job 5 to job 60: {resident:?}"
    );
}

/// Copy `from`'s job files into a fresh `to/jobs`.
fn copy_jobs(from: &Path, to: &Path) {
    std::fs::create_dir_all(to.join("jobs")).expect("create jobs dir");
    for entry in std::fs::read_dir(from.join("jobs")).expect("jobs dir") {
        let entry = entry.expect("jobs entry");
        std::fs::copy(entry.path(), to.join("jobs").join(entry.file_name()))
            .expect("copy job file");
    }
}

/// The daemon's counter `name`, if it has counted anything.
fn counter(client: &mut Client, name: &str) -> Option<i64> {
    let metrics = client.request(&Request::ShowMetrics).expect("show metrics");
    metrics
        .get("metrics")
        .and_then(ConfigValue::as_array)
        .expect("metrics array")
        .iter()
        .find(|m| m.get("name").and_then(ConfigValue::as_str) == Some(name))
        .and_then(|m| m.get("value").and_then(ConfigValue::as_integer))
}

/// The number of records a checkpoint head counts (0 while it is absent).
/// A kill between the sink's remove and rename leaves the head only at
/// its temp name, so that is read when the head itself is absent.
fn journaled_records(head: &Path) -> usize {
    std::fs::read_to_string(head)
        .or_else(|_| std::fs::read_to_string(tmp_path(head)))
        .ok()
        .and_then(|text| nasaic_core::checkpoint::SearchCheckpoint::parse_json(&text).ok())
        .map_or(0, |checkpoint| checkpoint.records_from)
}

/// Poll `show jobs` until job `job_id` finishes; return its persisted
/// report.
fn wait_for_result(client: &mut Client, state_dir: &Path, job_id: u64) -> ConfigValue {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let jobs = client.request(&Request::ShowJobs).expect("show jobs");
        let rows = jobs
            .get("jobs")
            .and_then(ConfigValue::as_array)
            .expect("jobs array");
        let row = rows
            .iter()
            .find(|row| row.get("job").and_then(ConfigValue::as_integer) == Some(job_id as i64))
            .expect("restarted daemon must remember the journaled job");
        match row.get("state").and_then(ConfigValue::as_str) {
            Some("finished") => {
                let text = std::fs::read_to_string(
                    state_dir.join("jobs").join(format!("{job_id}.result.json")),
                )
                .expect("persisted result");
                let result =
                    nasaic_core::scenario::value::parse_json(&text).expect("result parses");
                return result.get("report").expect("report").clone();
            }
            Some("failed") => panic!("job failed: {row:?}"),
            _ => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
        assert!(std::time::Instant::now() < deadline, "job never finished");
    }
}
