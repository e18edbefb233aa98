//! `serve`: what the `nasaic serve` daemon's shared warm engine buys over
//! one-shot runs, and how job throughput scales with concurrent clients.
//!
//! Gate: a job submitted over the socket must produce the same search
//! outcome as `nasaic run` on the same scenario and seed, and a warm
//! resubmission must change wall time only, never the outcome.
//!
//! Timing, on the W1 snapshot (40 episodes, 6 under `--quick`), appended
//! to `BENCH_serve.json` (`"bench": "serve"`):
//!
//! * warm payoff: wall-time of the first (cold) job on a fresh daemon
//!   versus repeat submissions of the same scenario against the
//!   now-warm shared engine;
//! * client fan-in: the same 8-job batch submitted by 1 sequential
//!   client versus 8 concurrent clients, as jobs/sec.  Read it beside the
//!   entry's `machine.parallel_ratio`: it cannot exceed what the machine's
//!   CPUs deliver.

use nasaic_bench::{gate, gate_scenario, round, scenario_fields, w1_snapshot, Options};
use nasaic_core::prelude::*;
use nasaic_core::scenario::value::ConfigValue::{self, Float, Integer};
use nasaic_serve::{Client, Daemon, DaemonHandle, ServeConfig};
use std::time::Instant;

/// Fields that legitimately differ between a daemon job and a direct run:
/// wall time always, cache statistics whenever the shared engine is warm.
const NONDETERMINISTIC_FIELDS: &[&str] = &[
    "wall_ms",
    "cache_hit_rate",
    "accuracy_hit_rate",
    "hardware_hit_rate",
    "accuracy_entries",
    "hardware_entries",
    "accuracy_evictions",
    "hardware_evictions",
    "accuracy_capacity",
    "hardware_capacity",
];

fn outcome_only(report: &ConfigValue) -> ConfigValue {
    let mut stripped = report.clone();
    for field in NONDETERMINISTIC_FIELDS {
        stripped.remove(field);
    }
    stripped
}

fn start_daemon(workers: usize) -> (DaemonHandle, String) {
    let handle = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// Submit one scenario over the socket (watching) and return its report.
fn submit(addr: &str, scenario: &Scenario) -> ConfigValue {
    let mut client = Client::connect(addr).expect("connect");
    let response = client
        .submit_watch(scenario.to_value(), |_| {})
        .expect("watched submit");
    assert_eq!(
        response.get("state").and_then(ConfigValue::as_str),
        Some("finished"),
        "job did not finish: {response:?}"
    );
    response.get("report").expect("report").clone()
}

fn shutdown(addr: &str, handle: DaemonHandle) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client
        .request(&nasaic_serve::Request::Shutdown)
        .expect("shutdown request");
    handle.join().expect("clean shutdown");
}

/// The identity gate; returns the failures (empty = pass).
fn identity_failures() -> Vec<String> {
    let scenario = gate_scenario("w1");
    let mut failures = Vec::new();

    let direct = outcome_only(&scenario.run_report().to_value());
    let (handle, addr) = start_daemon(1);
    let over_socket = outcome_only(&submit(&addr, &scenario));
    if over_socket != direct {
        failures.push("socket round trip changed the search outcome".to_string());
    }
    let warm = outcome_only(&submit(&addr, &scenario));
    if warm != direct {
        failures.push("warm resubmission changed the search outcome".to_string());
    }
    shutdown(&addr, handle);
    failures
}

pub fn run(options: &Options) {
    println!("== serve identity gate ==");
    gate(
        "the socket round trip and a warm resubmission are bit-identical \
         to the direct run",
        identity_failures(),
    );
    if options.check {
        return;
    }

    let scenario = w1_snapshot(options.quick, 40);
    println!(
        "== warm-engine measurement (w1, seed {}, {} episodes x (1 + {}) designs) ==",
        scenario.seed, scenario.search.episodes, scenario.search.hardware_trials
    );

    // Cold: the first job on a fresh daemon builds every value.  Warm:
    // repeat submissions of the same scenario are served from the shared
    // engine's caches.
    let warm_jobs = 4usize;
    let (handle, addr) = start_daemon(1);
    let start = Instant::now();
    let cold_report = submit(&addr, &scenario);
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    for _ in 0..warm_jobs {
        let warm_report = submit(&addr, &scenario);
        assert_eq!(
            outcome_only(&warm_report),
            outcome_only(&cold_report),
            "a warm job diverged from the cold one"
        );
    }
    let warm_ms = start.elapsed().as_secs_f64() * 1e3 / warm_jobs as f64;
    shutdown(&addr, handle);
    let warm_speedup = cold_ms / warm_ms.max(f64::MIN_POSITIVE);
    println!(
        "cold job {cold_ms:.0} ms; warm job {warm_ms:.1} ms averaged over {warm_jobs} \
         ({warm_speedup:.1}x)"
    );

    // Client fan-in: the same 8-job batch, 1 sequential client versus 8
    // concurrent clients against a daemon with 8 workers.  Each batch runs
    // on a fresh daemon so both start cold.
    let batch = 8usize;
    let batch_scenarios: Vec<Scenario> = (0..batch as u64)
        .map(|i| {
            let mut s = scenario.clone();
            s.seed = 3000 + i;
            s
        })
        .collect();

    let (handle, addr) = start_daemon(8);
    let start = Instant::now();
    for s in &batch_scenarios {
        submit(&addr, s);
    }
    let seq_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    shutdown(&addr, handle);

    let (handle, addr) = start_daemon(8);
    let start = Instant::now();
    let threads: Vec<_> = batch_scenarios
        .iter()
        .map(|s| {
            let addr = addr.clone();
            let s = s.clone();
            std::thread::spawn(move || submit(&addr, &s))
        })
        .collect();
    for thread in threads {
        thread.join().expect("client thread");
    }
    let conc_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    shutdown(&addr, handle);

    let seq_jobs_per_s = batch as f64 / (seq_wall_ms / 1e3).max(f64::MIN_POSITIVE);
    let conc_jobs_per_s = batch as f64 / (conc_wall_ms / 1e3).max(f64::MIN_POSITIVE);
    let conc_speedup = seq_wall_ms / conc_wall_ms.max(f64::MIN_POSITIVE);
    println!(
        "{batch} jobs: 1 client {seq_wall_ms:.0} ms ({seq_jobs_per_s:.2} jobs/s) vs \
         {batch} clients {conc_wall_ms:.0} ms ({conc_jobs_per_s:.2} jobs/s, {conc_speedup:.2}x)"
    );

    let fields = [
        ("cold_job_ms", Float(cold_ms.round())),
        ("warm_job_ms", Float(round(warm_ms, 1))),
        ("warm_jobs", Integer(warm_jobs as i64)),
        ("warm_speedup", Float(round(warm_speedup, 1))),
        ("batch_jobs", Integer(batch as i64)),
        ("seq_wall_ms", Float(seq_wall_ms.round())),
        ("seq_jobs_per_s", Float(round(seq_jobs_per_s, 2))),
        ("conc_clients", Integer(batch as i64)),
        ("conc_wall_ms", Float(conc_wall_ms.round())),
        ("conc_jobs_per_s", Float(round(conc_jobs_per_s, 2))),
        ("conc_speedup", Float(round(conc_speedup, 2))),
    ];
    options.record(scenario_fields(&scenario).into_iter().chain(fields));
}
