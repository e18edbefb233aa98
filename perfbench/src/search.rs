//! The in-process search workload, `rl-w1`.
//!
//! A run sets up several times in fresh processes, makes one direct untimed
//! reference run per search seed on a single-threaded engine in another,
//! then searches every seed in turn, each time on a fresh single-threaded
//! engine, until `--seconds` have passed, checking every outcome against
//! its reference.

use crate::{mean, median, Metrics, RunArgs, Tally};
use nasaic_core::engine::EngineConfig;
use nasaic_core::prelude::*;
use nasaic_core::scenario::value::{self, ConfigValue};
use nasaic_rl::{Controller, ControllerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fresh processes each run set up in; `setup_s` is their median.
const SETUP_PROBES: usize = 21;

/// Search seeds a run cycles through, drawn from `--seed`: a search's wall,
/// best accuracy and peak resident set all depend on the path its seed
/// takes, so every cycle of a run searches the same set of seeds.
const SEEDS_PER_RUN: u64 = 4;

/// Report fields that legitimately differ between runs of one seed: wall
/// time always, cache statistics whenever an engine was warm or shared.
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

/// The seeded outcome of a report: best candidate, weighted accuracy,
/// explored / compliant counts and the rest, minus what may vary.
pub fn outcome_of(report: &ConfigValue) -> ConfigValue {
    let mut stripped = report.clone();
    for field in NONDETERMINISTIC_FIELDS {
        stripped.remove(field);
    }
    stripped
}

/// Compare an outcome with its reference.
pub fn check_outcome(what: &str, got: &ConfigValue, reference: &ConfigValue) -> Result<(), String> {
    if outcome_of(got) == outcome_of(reference) {
        Ok(())
    } else {
        Err(format!(
            "{what}: seeded outcome differs from the direct run"
        ))
    }
}

/// The scenario `rl-w1` runs: builtin `w1` (NASAIC at the paper budget)
/// with the search seed `seed`.
pub fn rl_w1(seed: u64) -> Scenario {
    let mut scenario = registry::get("w1").expect("w1 is built in");
    scenario.seed = seed;
    scenario
}

/// A single-threaded engine: the reference path (no parallel batches) and
/// the attribution path of the traced run.
pub fn serial_engine(scenario: &Scenario) -> EvalEngine {
    scenario.engine_with_config(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    })
}

/// The direct untimed run every timed outcome is compared with.
pub fn direct_report(scenario: &Scenario) -> ConfigValue {
    scenario
        .run_report_with_engine(scenario.search.algorithm, &serial_engine(scenario))
        .to_value()
}

/// One set-up, in seconds: parse the scenario file, build its engine, and
/// do the driver's own set-up before its first episode, which is to
/// estimate the penalty bounds from random designs and build the
/// controller.  One full evaluation also fills the process-wide memo
/// tables.  Meant to run in a fresh process (`perfbench setup-probe`).
pub fn setup_once(seed: u64) -> f64 {
    let text = rl_w1(seed).to_json_string();
    let start = Instant::now();
    let scenario = Scenario::from_json_str(&text).expect("the scenario round-trips");
    let engine = scenario.engine();
    let workload = scenario.workload();
    let hardware = scenario.hardware_space();
    let bounds = PenaltyBounds::estimate_with_engine(
        &workload,
        &hardware,
        &engine,
        &scenario.specs,
        scenario.search.bound_samples,
        scenario.seed,
    );
    let controller = Controller::new(
        workload.controller_segments(&hardware),
        ControllerConfig::default(),
        scenario.seed,
    );
    let architectures = workload
        .tasks
        .iter()
        .map(|task| task.backbone.smallest_architecture())
        .collect();
    let accelerator = hardware.sample(&mut StdRng::seed_from_u64(seed));
    let evaluation = engine.evaluate(&Candidate::from_parts(architectures, accelerator));
    std::hint::black_box((bounds, controller, evaluation));
    start.elapsed().as_secs_f64()
}

/// Run this binary with `args` in a fresh process; returns its stdout.
fn run_child(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the harness: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run perfbench {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if output.status.success() {
        Ok(stdout)
    } else {
        Err(format!(
            "perfbench {args:?} failed ({}): {stdout}",
            output.status
        ))
    }
}

/// Median set-up time over [`SETUP_PROBES`] fresh processes.
fn measure_setup(seed: u64) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let text = run_child(&["setup-probe", &seed.to_string()])?;
        let seconds = text
            .trim()
            .parse::<f64>()
            .map_err(|_| format!("set-up probe printed {text:?}"))?;
        samples.push(seconds);
    }
    Ok(median(&samples))
}

/// `perfbench reference <seed>`: the direct run as one JSON line, then this
/// process's peak resident set in MiB.  The single-threaded engine keeps
/// per-thread allocator arenas out of the peak.
pub fn print_reference(seed: u64) -> Result<(), String> {
    let report = direct_report(&rl_w1(seed));
    println!("{}", value::to_json_compact(&report));
    println!("{}", crate::peak_rss_mb(std::process::id())?);
    Ok(())
}

/// The direct run of a fresh `perfbench reference` process and its peak
/// resident set in MiB.
fn reference_in_child(seed: u64) -> Result<(ConfigValue, f64), String> {
    let text = run_child(&["reference", &seed.to_string()])?;
    let mut lines = text.lines();
    let report = lines
        .next()
        .and_then(|line| value::parse_json(line).ok())
        .ok_or_else(|| format!("reference run printed {text:?}"))?;
    let rss_mb = lines
        .next()
        .and_then(|line| line.trim().parse::<f64>().ok())
        .ok_or_else(|| format!("reference run printed {text:?}"))?;
    Ok((report, rss_mb))
}

/// The weighted accuracy of a report's spec-compliant best.
fn best_of(report: &ConfigValue) -> Result<f64, String> {
    report
        .get("best")
        .and_then(|b| b.get("weighted_accuracy"))
        .and_then(ConfigValue::as_float)
        .ok_or_else(|| "a reference run found no spec-compliant solution".to_string())
}

/// Stamps the end of every evaluated episode of one search.
#[derive(Default)]
struct EpisodeClock {
    stamps: std::sync::Mutex<Vec<Instant>>,
}

impl SearchObserver for EpisodeClock {
    fn on_event(&self, event: &SearchEvent) {
        if let SearchEvent::EpisodeEvaluated { .. } = event {
            self.stamps.lock().expect("clock lock").push(Instant::now());
        }
    }
}

impl EpisodeClock {
    /// The search from `start` to `end` cut at the stamps, in seconds: what
    /// precedes the first episode, each episode, and what follows the last.
    fn parts(&self, start: Instant, end: Instant) -> Vec<f64> {
        let stamps = self.stamps.lock().expect("clock lock");
        std::iter::once(start)
            .chain(stamps.iter().copied())
            .chain(std::iter::once(end))
            .collect::<Vec<_>>()
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect()
    }
}

/// The search seeds of a run: [`SEEDS_PER_RUN`] of them, disjoint between
/// `--seed` values.
pub fn run_seeds(seed: u64) -> Vec<u64> {
    (0..SEEDS_PER_RUN)
        .map(|k| seed.wrapping_mul(SEEDS_PER_RUN).wrapping_add(k))
        .collect()
}

/// `--trace 0` on `rl-w1`.
pub fn measure(run: &RunArgs, tally: &mut Tally) -> Result<Metrics, String> {
    let setup_s = measure_setup(run.seed)?;
    let (mut searches, mut rss, mut best) = (Vec::new(), Vec::new(), Vec::new());
    for seed in run_seeds(run.seed) {
        let (reference, rss_mb) = reference_in_child(seed)?;
        rss.push(rss_mb);
        best.push(best_of(&reference)?);
        searches.push((rl_w1(seed), reference));
    }

    // Each cycle searches every seed once on a fresh single-threaded engine,
    // cut into parts at its episodes.
    let mut walls = vec![Vec::new(); searches.len()];
    let mut parts: Vec<Vec<Vec<f64>>> = vec![Vec::new(); searches.len()];
    let started = Instant::now();
    while walls[0].is_empty() || started.elapsed().as_secs_f64() < run.seconds {
        for (k, (scenario, reference)) in searches.iter().enumerate() {
            let clock = EpisodeClock::default();
            let start = Instant::now();
            let report = scenario.run_report_observed(
                scenario.search.algorithm,
                &serial_engine(scenario),
                &clock,
            );
            let end = Instant::now();
            walls[k].push((end - start).as_secs_f64());
            parts[k].push(clock.parts(start, end));
            tally.record(check_outcome(
                &format!("rl-w1 seed {} search {}", scenario.seed, walls[k].len()),
                &report.to_value(),
                reference,
            ));
        }
    }

    // Other tenants of a shared host only ever slow a part down, in phases
    // of seconds to minutes, so each part's fastest repeat is its cost with
    // the least interference; a seed's filtered wall sums those.
    let filtered: Vec<f64> = parts.iter().map(|repeats| fastest_parts(repeats)).collect();
    let round = |v: &[f64]| {
        v.iter()
            .map(|w| (w * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    };
    for (k, (scenario, _)) in searches.iter().enumerate() {
        println!(
            "rl-w1 seed {}: walls {:?} s, filtered wall {:.4} s",
            scenario.seed,
            round(&walls[k]),
            filtered[k]
        );
    }
    let wall = mean(&filtered);

    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_s);
    metrics.set("search_wall_s", wall);
    metrics.set("best_weighted_accuracy", median(&best));
    // In process a search is a job with no queue, due when it starts; the
    // slowest job is the seed whose filtered wall is highest.
    metrics.set("job_latency_p50_s", wall);
    metrics.set(
        "job_latency_tail_s",
        filtered.iter().copied().fold(0.0, f64::max),
    );
    metrics.set("jobs_per_s", 1.0 / wall);
    metrics.set("peak_rss_mb", median(&rss));
    Ok(metrics)
}

/// The sum over a search's parts of each part's fastest repeat; `repeats`
/// holds one part list per repeat of the same seeded search.
fn fastest_parts(repeats: &[Vec<f64>]) -> f64 {
    (0..repeats.iter().map(Vec::len).min().unwrap_or(0))
        .map(|i| {
            repeats
                .iter()
                .map(|parts| parts[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}
