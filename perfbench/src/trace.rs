//! The traced run (`--trace 1`): per-layer metrics.
//!
//! The run first makes the workload's own runs (searches, or the serve
//! load plus an in-process replay of its jobs), then feeds each layer's
//! public entry points the inputs those runs produced: the explored
//! candidate stream, the episode batches, the checkpoints taken and the
//! jobs submitted.  Every call gets a span (name, start, end, parent,
//! owner); spans stay in memory and are written to
//! `.bench_run/spans-<workload>-<seed>.jsonl` when the run ends.
//!
//! Per-call costs come from those replays; how often the workload called
//! each layer comes from its engine statistics and from the telemetry
//! registry, which is enabled on the traced runs only and printed next to
//! the replayed shares as a cross-check.

use crate::search::{check_outcome, rl_w1, serial_engine};
use crate::serve::{self, DaemonProcess, JobSpec};
use crate::{median, tail, Metrics, RunArgs, Tally};
use nasaic_core::engine::EngineConfig;
use nasaic_core::metrics::MetricsObserver;
use nasaic_core::prelude::*;
use nasaic_core::scenario::value::{self, ConfigValue};
use nasaic_cost::LayerCostCache;
use nasaic_rl::{Controller, ControllerConfig};
use nasaic_sched::{solve_with_policy, HapProblem};
use nasaic_telemetry::MetricValue;
use nasaic_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Controller interactions replayed when the workload made none, so the
/// per-call cost is still measured on the workload's own shapes.
const MIN_RL_PAIRS: usize = 400;

/// Checkpoints the sparse checkpoint replay of a search workload takes.
const SEARCH_CHECKPOINTS: usize = 8;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
    name: &'static str,
    owner: usize,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// An in-memory span recorder for single-threaded replays.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    owners: Vec<String>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            owners: Vec::new(),
        }
    }

    fn owner(&mut self, name: &str) -> usize {
        if let Some(i) = self.owners.iter().position(|o| o == name) {
            return i;
        }
        self.owners.push(name.to_string());
        self.owners.len() - 1
    }

    /// Open a span; later spans nest under it until [`Tracer::end`].
    fn begin(&mut self, name: &'static str, owner: usize) {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            owner,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span; returns its duration.
    fn end(&mut self) -> Duration {
        let id = self.open.pop().expect("a span is open");
        self.spans[id].end = Instant::now();
        self.spans[id].end - self.spans[id].start
    }

    /// A leaf span around `f`.
    fn leaf<T>(&mut self, name: &'static str, owner: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, owner, start, Instant::now());
        out
    }

    /// A span measured elsewhere, nested under the innermost open span.
    fn record(&mut self, name: &'static str, owner: usize, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            owner,
            start,
            end,
            parent: self.open.last().copied(),
        });
    }

    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
            .collect()
    }

    /// Mean duration of the spans called `name`, in µs (0 when none).
    fn mean_us(&self, name: &str) -> f64 {
        let d = self.durations_us(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    }

    /// Write every span as one JSON line, then print total and self time
    /// (span time minus the time of its child spans) per span name.
    fn finish(&self, path: &Path) -> Result<(), String> {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos();
        let mut text = String::new();
        let _ = writeln!(text, "{{\"fingerprint\": {}}}", crate::fingerprint());
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"owner\": \"{}\"}}",
                s.name,
                ns(s.start),
                ns(s.end),
                self.owners[s.owner]
            );
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut by_name: Vec<(&str, usize, Duration, Duration)> = Vec::new();
        for (s, children) in self.spans.iter().zip(&child_time) {
            let total = s.end - s.start;
            let own = total.saturating_sub(*children);
            match by_name.iter_mut().find(|(n, ..)| *n == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += total;
                    row.3 += own;
                }
                None => by_name.push((s.name, 1, total, own)),
            }
        }
        println!("spans: {} written to {}", self.spans.len(), path.display());
        println!(
            "  {:<24} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, count, total, own) in by_name {
            println!(
                "  {name:<24} {count:>8} {:>12.3} {:>12.3}",
                total.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3
            );
        }
        Ok(())
    }
}

fn spans_path(run: &RunArgs) -> PathBuf {
    let dir = run.run_dir.parent().unwrap_or(Path::new("."));
    dir.join(format!("spans-{}-{}.jsonl", run.workload.name(), run.seed))
}

// ---------------------------------------------------------------------------
// The checkpoint decorator
// ---------------------------------------------------------------------------

/// One checkpoint as the decorator saw it.
#[derive(Debug, Clone, Copy)]
struct CheckpointTimes {
    /// `wants(progress) == true` answered.
    wanted: Instant,
    /// `on_checkpoint` entered: the state tree is built.
    entered: Instant,
    /// The inner sink returned: JSON encoded, written and renamed.
    written: Instant,
    bytes: u64,
}

/// A [`CheckpointSink`] around another one, timing each checkpoint from
/// outside: state-tree build (the gap from a `wants == true` answer to
/// `on_checkpoint`) and write (the inner `on_checkpoint`), plus the size of
/// the file written.  It also remembers the highest progress offered.
struct TimedSink<S> {
    inner: S,
    file: Option<PathBuf>,
    wanted: Mutex<Option<Instant>>,
    taken: Mutex<Vec<CheckpointTimes>>,
    max_progress: Mutex<usize>,
}

impl<S: CheckpointSink> TimedSink<S> {
    fn new(inner: S, file: Option<PathBuf>) -> Self {
        Self {
            inner,
            file,
            wanted: Mutex::new(None),
            taken: Mutex::new(Vec::new()),
            max_progress: Mutex::new(0),
        }
    }

    fn taken(&self) -> Vec<CheckpointTimes> {
        self.taken.lock().expect("sink lock").clone()
    }
}

impl<S: CheckpointSink> CheckpointSink for TimedSink<S> {
    fn wants(&self, progress: usize) -> bool {
        let mut max = self.max_progress.lock().expect("sink lock");
        *max = (*max).max(progress);
        let wants = self.inner.wants(progress);
        if wants {
            *self.wanted.lock().expect("sink lock") = Some(Instant::now());
        }
        wants
    }

    fn on_checkpoint(&self, checkpoint: &SearchCheckpoint) {
        let entered = Instant::now();
        self.inner.on_checkpoint(checkpoint);
        let written = Instant::now();
        let bytes = self
            .file
            .as_ref()
            .and_then(|f| std::fs::metadata(f).ok())
            .map_or(0, |m| m.len());
        let wanted = self
            .wanted
            .lock()
            .expect("sink lock")
            .take()
            .unwrap_or(entered);
        self.taken.lock().expect("sink lock").push(CheckpointTimes {
            wanted,
            entered,
            written,
            bytes,
        });
    }
}

// ---------------------------------------------------------------------------
// Telemetry registry cross-check
// ---------------------------------------------------------------------------

/// `(count, sum)` of each histogram and the value of each counter in the
/// global registry.
fn registry() -> HashMap<String, (f64, f64)> {
    nasaic_telemetry::global()
        .snapshot()
        .into_iter()
        .filter(|s| s.labels.is_empty())
        .filter_map(|s| match s.value {
            MetricValue::Histogram(h) => Some((s.name, (h.count as f64, h.sum as f64))),
            MetricValue::Counter(c) => Some((s.name, (c as f64, c as f64))),
            MetricValue::Gauge(_) => None,
        })
        .collect()
}

fn reg_count(reg: &HashMap<String, (f64, f64)>, name: &str) -> f64 {
    reg.get(name).map_or(0.0, |v| v.0)
}

fn reg_sum_s(reg: &HashMap<String, (f64, f64)>, name: &str) -> f64 {
    reg.get(name).map_or(0.0, |v| v.1 / 1e9)
}

/// Run `f` with the registry enabled and reset; returns its result and the
/// registry afterwards.
fn with_registry<T>(f: impl FnOnce() -> T) -> (T, HashMap<String, (f64, f64)>) {
    nasaic_telemetry::set_enabled(true);
    nasaic_telemetry::global().reset();
    let out = f();
    nasaic_telemetry::set_enabled(false);
    (out, registry())
}

// ---------------------------------------------------------------------------
// Layer replays
// ---------------------------------------------------------------------------

/// One search whose explored stream the replays consume.
struct Explored<'a> {
    scenario: &'a Scenario,
    outcome: &'a SearchOutcome,
    owner: usize,
}

/// Replay the explored streams through the accuracy oracle, the cost
/// model, the HAP scheduler and a fresh engine, and the controller on
/// `rl_scenario`'s shapes for `rl_pairs` sample/feedback pairs.  Candidates
/// are deduplicated per engine identity, as the workload's engines did.
fn replay_layers(
    tracer: &mut Tracer,
    streams: &[Explored],
    rl_scenario: &Scenario,
    rl_pairs: usize,
) {
    let model = CostModel::paper_calibrated();

    tracer.begin("replay.accuracy", 0);
    let mut seen: HashSet<(String, usize, Vec<usize>)> = HashSet::new();
    for stream in streams {
        let key = nasaic_serve::daemon::engine_key(stream.scenario);
        let evaluator = Evaluator::new(
            &stream.scenario.workload(),
            stream.scenario.specs,
            AccuracyOracle::default(),
        );
        for solution in &stream.outcome.explored {
            for (task, arch) in solution.candidate.architectures.iter().enumerate() {
                if seen.insert((key.clone(), task, arch.hyperparameters.clone())) {
                    tracer.leaf("accuracy.query", stream.owner, || {
                        std::hint::black_box(evaluator.accuracy_for_task(task, arch))
                    });
                }
            }
        }
    }
    tracer.end();

    tracer.begin("replay.cost_sched", 0);
    let mut seen: HashSet<(String, String)> = HashSet::new();
    let mut caches: HashMap<String, LayerCostCache> = HashMap::new();
    for stream in streams {
        let key = nasaic_serve::daemon::engine_key(stream.scenario);
        let cache = caches.entry(key.clone()).or_default();
        for solution in &stream.outcome.explored {
            let candidate = &solution.candidate;
            if !candidate.accelerator.has_capacity()
                || !seen.insert((key.clone(), candidate.summary()))
            {
                continue;
            }
            let costs = tracer.leaf("cost.build", stream.owner, || {
                cache.workload_costs(&model, &candidate.architectures, &candidate.accelerator)
            });
            if costs.is_schedulable() {
                let problem = HapProblem::new(costs, stream.scenario.specs.latency_cycles);
                tracer.leaf("sched.solve", stream.owner, || {
                    std::hint::black_box(solve_with_policy(
                        &problem,
                        stream.scenario.search.scheduler,
                    ))
                });
            }
        }
    }
    tracer.end();

    tracer.begin("replay.engine", 0);
    let mut engines: HashMap<String, EvalEngine> = HashMap::new();
    for stream in streams {
        let key = nasaic_serve::daemon::engine_key(stream.scenario);
        let engine = engines
            .entry(key)
            .or_insert_with(|| serial_engine(stream.scenario));
        let explored = &stream.outcome.explored;
        let mut start = 0;
        while start < explored.len() {
            let episode = explored[start].episode;
            let end = start
                + explored[start..]
                    .iter()
                    .take_while(|s| s.episode == episode)
                    .count();
            let batch: Vec<Candidate> = explored[start..end]
                .iter()
                .map(|s| s.candidate.clone())
                .collect();
            tracer.leaf("engine.eval_batch", stream.owner, || {
                std::hint::black_box(engine.evaluate_batch(&batch))
            });
            start = end;
        }
    }
    tracer.end();

    tracer.begin("replay.rl", 0);
    let workload = rl_scenario.workload();
    let segments = workload.controller_segments(&rl_scenario.hardware_space());
    let max_card = segments
        .iter()
        .flat_map(|s| s.cardinalities.iter().copied())
        .max()
        .unwrap_or(1);
    let mut controller = Controller::new(segments, ControllerConfig::default(), rl_scenario.seed);
    let mut rng = StdRng::seed_from_u64(rl_scenario.seed);
    let rewards: Vec<f64> = streams
        .iter()
        .flat_map(|s| s.outcome.explored.iter().map(|e| e.reward))
        .collect();
    let owner = streams.first().map_or(0, |s| s.owner);
    for k in 0..rl_pairs {
        let sample = tracer.leaf("rl.sample", owner, || controller.sample(&mut rng));
        let reward = rewards
            .get(k % rewards.len().max(1))
            .copied()
            .unwrap_or(0.5);
        tracer.leaf("rl.feedback", owner, || {
            controller.feedback(&sample, reward)
        });
    }
    tracer.end();

    // Controller-shaped operands: the recurrent step's hidden x hidden and
    // hidden x one-hot input products.
    tracer.begin("replay.tensor", 0);
    let hidden = ControllerConfig::default().hidden_size;
    let input = max_card + 1;
    let fill = |rows: usize, cols: usize| {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| ((i % 17) as f64 - 8.0) / 9.0)
                .collect(),
        )
    };
    let (w_h, h, w_x, x) = (
        fill(hidden, hidden),
        fill(hidden, 1),
        fill(hidden, input),
        fill(input, 1),
    );
    for _ in 0..40 {
        tracer.leaf("tensor.matmul_x100", 0, || {
            for _ in 0..50 {
                std::hint::black_box(w_h.matmul(&h));
                std::hint::black_box(w_x.matmul(&x));
            }
        });
    }
    tracer.end();
}

/// Per-call means of the replayed layers, in µs (`tensor` in ns).
struct LayerCosts {
    matmul_ns: f64,
    sample_us: f64,
    feedback_us: f64,
    accuracy_us: f64,
    cost_us: f64,
    sched_us: f64,
    engine_eval_us: f64,
}

fn layer_costs(tracer: &Tracer, streams: &[Explored]) -> LayerCosts {
    let batch_us: f64 = tracer.durations_us("engine.eval_batch").iter().sum();
    let candidates: usize = streams.iter().map(|s| s.outcome.explored.len()).sum();
    LayerCosts {
        matmul_ns: median(&tracer.durations_us("tensor.matmul_x100")) * 1e3 / 100.0,
        sample_us: tracer.mean_us("rl.sample"),
        feedback_us: tracer.mean_us("rl.feedback"),
        accuracy_us: tracer.mean_us("accuracy.query"),
        cost_us: tracer.mean_us("cost.build"),
        sched_us: tracer.mean_us("sched.solve"),
        engine_eval_us: if candidates > 0 {
            batch_us / candidates as f64
        } else {
            0.0
        },
    }
}

/// Set the layer metrics shared by every workload: per-call costs from the
/// replays, and call counts and shares of `wall_s` from the registry of the
/// workload's traced run, which timed the same calls inside the run.  The
/// shares the replays predict are printed next to the registry's as a
/// cross-check.
fn set_layer_metrics(
    metrics: &mut Metrics,
    costs: &LayerCosts,
    reg: &HashMap<String, (f64, f64)>,
    wall_s: f64,
) {
    const CONTROLLER: &str = "nasaic_controller_wall_ns";
    const ACCURACY: &str = "nasaic_eval_accuracy_wall_ns";
    const COST: &str = "nasaic_eval_cost_model_wall_ns";
    const SCHED: &str = "nasaic_eval_sched_solve_wall_ns";
    const CHECKPOINT: &str = "nasaic_checkpoint_encode_wall_ns";
    let share = |histogram: &str| reg_sum_s(reg, histogram) / wall_s;
    let calls = |histogram: &str| reg_count(reg, histogram);
    // Every controller sample is followed by exactly one feedback.
    let rl_us = (costs.sample_us + costs.feedback_us) / 2.0;
    println!(
        "cross-check: shares of the traced wall ({:.1} ms), registry vs replayed",
        wall_s * 1e3
    );
    println!(
        "  {:<12} {:>10} {:>10} {:>16} {:>16}",
        "layer", "registry", "replayed", "registry_us/call", "replayed_us/call"
    );
    let mut covered = 0.0;
    for (layer, histogram, replay_us) in [
        ("controller", CONTROLLER, Some(rl_us)),
        ("accuracy", ACCURACY, Some(costs.accuracy_us)),
        ("cost", COST, Some(costs.cost_us)),
        ("sched", SCHED, Some(costs.sched_us)),
        ("checkpoint", CHECKPOINT, None),
    ] {
        covered += share(histogram);
        let registry_us = reg_sum_s(reg, histogram) / calls(histogram).max(1.0) * 1e6;
        let (replayed_share, replay_us) = match replay_us {
            Some(us) => (
                format!("{:.4}", calls(histogram) * us / 1e6 / wall_s),
                format!("{us:.3}"),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        println!(
            "  {layer:<12} {:>10.4} {replayed_share:>10} {registry_us:>16.3} {replay_us:>16}",
            share(histogram)
        );
    }
    println!("  {:<12} {:>10.4}", "other", 1.0 - covered);

    metrics.set("tensor.matmul_ns", costs.matmul_ns);
    metrics.set("rl.sample_us", costs.sample_us);
    metrics.set("rl.feedback_us", costs.feedback_us);
    metrics.set("rl.calls", calls(CONTROLLER));
    metrics.set("rl.share", share(CONTROLLER));
    metrics.set("accuracy.query_us", costs.accuracy_us);
    metrics.set("accuracy.calls", calls(ACCURACY));
    metrics.set("cost.build_us", costs.cost_us);
    metrics.set("cost.calls", calls(COST));
    metrics.set("cost.share", share(COST));
    metrics.set("sched.solve_us", costs.sched_us);
    metrics.set("sched.calls", calls(SCHED));
    metrics.set("sched.share", share(SCHED));
    metrics.set("engine.eval_us", costs.engine_eval_us);
    metrics.set("engine.dedup_saved", calls("nasaic_eval_dedup_saved_total"));
    metrics.set("driver.other_share", (1.0 - covered).max(0.0));
}

/// Engine hit ratio and evictions of finished engines.
fn engine_stats(metrics: &mut Metrics, stats: &[CacheStats]) {
    let hits: u64 = stats
        .iter()
        .map(|s| s.accuracy_hits + s.hardware_hits)
        .sum();
    let misses: u64 = stats
        .iter()
        .map(|s| s.accuracy_misses + s.hardware_misses)
        .sum();
    let lookups = (hits + misses).max(1);
    metrics.set("engine.hit_ratio", hits as f64 / lookups as f64);
    metrics.set(
        "engine.evictions",
        stats.iter().map(CacheStats::evictions).sum::<u64>() as f64,
    );
}

/// Checkpoint metrics from the decorator's records; `taken_by_workload`
/// says whether the workload itself writes these checkpoints (count and
/// total bytes) or they only price its state.
fn checkpoint_metrics(
    metrics: &mut Metrics,
    tracer: &mut Tracer,
    owner: usize,
    taken: &[CheckpointTimes],
    taken_by_workload: bool,
) {
    for t in taken {
        tracer.record("checkpoint.build", owner, t.wanted, t.entered);
        tracer.record("checkpoint.write", owner, t.entered, t.written);
    }
    let n = taken.len().max(1) as f64;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let bytes: u64 = taken.iter().map(|t| t.bytes).sum();
    metrics.set(
        "checkpoint.build_us",
        taken.iter().map(|t| us(t.entered - t.wanted)).sum::<f64>() / n,
    );
    metrics.set(
        "checkpoint.write_us",
        taken.iter().map(|t| us(t.written - t.entered)).sum::<f64>() / n,
    );
    metrics.set("checkpoint.bytes_mean", bytes as f64 / n);
    let (count, total) = if taken_by_workload {
        (taken.len() as f64, bytes as f64)
    } else {
        (0.0, 0.0)
    };
    metrics.set("checkpoint.count", count);
    metrics.set("checkpoint.bytes_total", total);
}

/// Time parsing one job's inputs: its submitted scenario and the last
/// checkpoint it wrote.  Returns µs.
fn parse_job_inputs(
    tracer: &mut Tracer,
    owner: usize,
    scenario: &Scenario,
    checkpoint: &Path,
) -> Result<f64, String> {
    let line = value::to_json_compact(&scenario.to_value());
    let start = Instant::now();
    tracer.begin("value.parse", owner);
    let parsed = value::parse_json(&line).and_then(|v| Scenario::from_value(&v));
    let text = std::fs::read_to_string(checkpoint)
        .map_err(|e| format!("cannot read {}: {e}", checkpoint.display()))?;
    let resumed = SearchCheckpoint::parse_json(&text);
    tracer.end();
    let us = start.elapsed().as_secs_f64() * 1e6;
    if parsed.as_ref() != Ok(scenario) {
        return Err("a submitted scenario did not parse back to itself".to_string());
    }
    resumed.map_err(|e| format!("a checkpoint did not parse: {e}"))?;
    Ok(us)
}

/// The serve layer seen from outside: queue wait (due time to completion,
/// minus the daemon's `run_ms`), run time, pings, rejects, cache hits and
/// generator lateness.
fn serve_metrics(
    metrics: &mut Metrics,
    load: &serve::Load,
    show_cache: &ConfigValue,
) -> Result<(), String> {
    let waits: Vec<f64> = load
        .records
        .iter()
        .filter_map(|r| Some(r.latency_s? * 1e3 - r.run_ms?))
        .collect();
    let runs: Vec<f64> = load.records.iter().filter_map(|r| r.run_ms).collect();
    if waits.is_empty() || load.ping_rtts_us.is_empty() {
        return Err("the serve load completed no job or sent no ping".to_string());
    }
    metrics.set("serve.queue_wait_ms_p50", median(&waits));
    metrics.set("serve.queue_wait_ms_tail", tail("queue wait", &waits));
    metrics.set("serve.run_ms_p50", median(&runs));
    metrics.set("serve.ping_rtt_us", median(&load.ping_rtts_us));
    metrics.set("serve.rejects", load.rejects as f64);
    metrics.set("serve.engine_hit_ratio", serve::cache_hit_ratio(show_cache));
    let late_ms = load
        .records
        .iter()
        .map(|r| r.late_s * 1e3)
        .fold(0.0, f64::max);
    metrics.set("loadgen.late_ms_max", late_ms);
    Ok(())
}

// ---------------------------------------------------------------------------
// Search workloads
// ---------------------------------------------------------------------------

/// `--trace 1` on `rl-w1`.
pub fn traced_search(run: &RunArgs, tally: &mut Tally) -> Result<Metrics, String> {
    let scenario = rl_w1(run.seed);
    let algorithm = scenario.search.algorithm;
    let mut tracer = Tracer::new();
    let owner = tracer.owner(run.workload.name());
    let mut metrics = Metrics::default();
    tracer.begin("trace", owner);

    // The workload's own runs, single-threaded so layer time adds up to
    // wall time.  The first one is the reference and warms the process; it
    // also learns how many progress units the search offers checkpoints at.
    let probe = TimedSink::new(NullCheckpointSink, None);
    tracer.begin("search.reference", owner);
    let first = scenario.run_algorithm_checkpointed(
        algorithm,
        &serial_engine(&scenario),
        &NullObserver,
        None,
        &probe,
    );
    tracer.end();
    let reference = scenario.report_for_outcome(algorithm, &first).to_value();
    let check = |what: &str, outcome: &SearchOutcome| {
        check_outcome(
            what,
            &scenario.report_for_outcome(algorithm, outcome).to_value(),
            &reference,
        )
    };

    // What a checkpoint of this workload's state costs, at a sparse cadence
    // (the workload itself takes none).
    let every = (*probe.max_progress.lock().expect("sink lock") / SEARCH_CHECKPOINTS).max(1);
    let file = run.run_dir.join("search.ckpt.json");
    let sink = TimedSink::new(FileCheckpointSink::new(&file, every), Some(file.clone()));
    tracer.begin("search.checkpointed", owner);
    let (checkpointed, ckpt_reg) = with_registry(|| {
        scenario.run_algorithm_checkpointed(
            algorithm,
            &serial_engine(&scenario),
            &NullObserver,
            None,
            &sink,
        )
    });
    let checkpointed_s = tracer.end().as_secs_f64();
    tally.record(check("checkpointed search", &checkpointed));
    checkpoint_metrics(&mut metrics, &mut tracer, owner, &sink.taken(), false);
    println!(
        "cross-check: checkpoint share of the checkpointed wall, replayed {:.4} vs registry {:.4}",
        sink.taken()
            .iter()
            .map(|t| (t.written - t.wanted).as_secs_f64())
            .sum::<f64>()
            / checkpointed_s,
        reg_sum_s(&ckpt_reg, "nasaic_checkpoint_encode_wall_ns") / checkpointed_s
    );
    metrics.set(
        "value.parse_us",
        parse_job_inputs(&mut tracer, owner, &scenario, &file)?,
    );

    // Untraced, then with the registry on: the overhead of tracing.
    tracer.begin("search.untraced", owner);
    let untraced = scenario.run_algorithm_with_engine(algorithm, &serial_engine(&scenario));
    let untraced_s = tracer.end().as_secs_f64();
    tally.record(check("untraced search", &untraced));
    let engine = serial_engine(&scenario);
    tracer.begin("search.traced", owner);
    let (outcome, reg) = with_registry(|| {
        scenario.run_algorithm_observed(algorithm, &engine, &MetricsObserver::new())
    });
    let traced_s = tracer.end().as_secs_f64();
    tally.record(check("traced search", &outcome));
    engine_stats(&mut metrics, &[engine.stats()]);
    metrics.set("trace.overhead_ratio", traced_s / untraced_s - 1.0);

    // The layers, fed this run's explored stream.
    let streams = [Explored {
        scenario: &scenario,
        outcome: &outcome,
        owner,
    }];
    let rl_pairs =
        ((reg_count(&reg, "nasaic_controller_wall_ns") / 2.0) as usize).max(MIN_RL_PAIRS);
    replay_layers(&mut tracer, &streams, &scenario, rl_pairs);
    set_layer_metrics(
        &mut metrics,
        &layer_costs(&tracer, &streams),
        &reg,
        traced_s,
    );

    // The serve layer on this workload: its search as one daemon job.  The
    // state dir persists the result; the huge interval takes no checkpoint.
    tracer.begin("serve.job", owner);
    let state_dir = run.run_dir.join("state");
    let addr_file = run.run_dir.join("addr.txt");
    let (daemon, _) = DaemonProcess::spawn_with(
        Some(&state_dir),
        &addr_file,
        &["--checkpoint-every", "1000000000"],
    )?;
    let jobs = [JobSpec {
        scenario: scenario.clone(),
        due_s: 0.0,
    }];
    let load = serve::drive(&daemon, &jobs, true)?;
    let show_cache = serve::ask(&mut daemon.client()?, &nasaic_serve::Request::ShowCache)?;
    daemon.shutdown()?;
    tracer.end();
    serve::check_jobs(
        &state_dir,
        &jobs,
        &load.records,
        |_| reference.clone(),
        tally,
    );
    serve_metrics(&mut metrics, &load, &show_cache)?;

    tracer.end();
    tracer.finish(&spans_path(run))?;
    Ok(metrics)
}

// ---------------------------------------------------------------------------
// Serve workload
// ---------------------------------------------------------------------------

/// Every accepted job of the load, run again in process.
struct JobReplay {
    untraced: Vec<Option<SearchOutcome>>,
    traced: Vec<Option<SearchOutcome>>,
    taken: Vec<CheckpointTimes>,
    /// Statistics of the traced pass's engines.
    stats: Vec<CacheStats>,
    untraced_s: f64,
    traced_s: f64,
    registry: HashMap<String, (f64, f64)>,
}

/// Replay every accepted job in process, checkpointing every episode like
/// the daemon, on serial engines shared per engine identity as the daemon
/// shares them.  Each job runs twice back to back, untraced and then with
/// the registry and the checkpoint decorator, so both passes see the same
/// machine state.  Each job gets a span owned by its job id.
fn replay_jobs(
    tracer: &mut Tracer,
    run: &RunArgs,
    jobs: &[JobSpec],
    records: &[serve::JobRecord],
) -> JobReplay {
    let serial = EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    };
    let mut plain_engines: HashMap<String, EvalEngine> = HashMap::new();
    let mut traced_engines: HashMap<String, EvalEngine> = HashMap::new();
    let mut replay = JobReplay {
        untraced: Vec::with_capacity(jobs.len()),
        traced: Vec::with_capacity(jobs.len()),
        taken: Vec::new(),
        stats: Vec::new(),
        untraced_s: 0.0,
        traced_s: 0.0,
        registry: HashMap::new(),
    };
    nasaic_telemetry::global().reset();
    for (index, (job, record)) in jobs.iter().zip(records).enumerate() {
        let Some(id) = record.id else {
            replay.untraced.push(None);
            replay.traced.push(None);
            continue;
        };
        let owner = tracer.owner(&format!("job-{id}"));
        let key = nasaic_serve::daemon::engine_key(&job.scenario);
        let algorithm = job.scenario.search.algorithm;
        let file = run.run_dir.join(format!("replay-{index}.ckpt.json"));

        let engine = plain_engines
            .entry(key.clone())
            .or_insert_with(|| job.scenario.engine_with_config(serial));
        let sink = FileCheckpointSink::new(&file, 1);
        tracer.begin("job.untraced", owner);
        let outcome =
            job.scenario
                .run_algorithm_checkpointed(algorithm, engine, &NullObserver, None, &sink);
        replay.untraced_s += tracer.end().as_secs_f64();
        replay.untraced.push(Some(outcome));

        let engine = traced_engines
            .entry(key)
            .or_insert_with(|| job.scenario.engine_with_config(serial));
        let sink = TimedSink::new(FileCheckpointSink::new(&file, 1), Some(file.clone()));
        tracer.begin("job.traced", owner);
        nasaic_telemetry::set_enabled(true);
        let outcome = job.scenario.run_algorithm_checkpointed(
            algorithm,
            engine,
            &MetricsObserver::new(),
            None,
            &sink,
        );
        nasaic_telemetry::set_enabled(false);
        replay.traced_s += tracer.end().as_secs_f64();
        replay.traced.push(Some(outcome));
        replay.taken.extend(sink.taken());
    }
    replay.stats = traced_engines.values().map(EvalEngine::stats).collect();
    replay.registry = registry();
    replay
}

/// `--trace 1` on `serve-durable`.
pub fn traced_serve(run: &RunArgs, tally: &mut Tally) -> Result<Metrics, String> {
    let mut tracer = Tracer::new();
    let daemon_owner = tracer.owner("daemon");
    let mut metrics = Metrics::default();
    tracer.begin("trace", daemon_owner);

    tracer.begin("serve.load", daemon_owner);
    let session = serve::session(run, true)?;
    tracer.end();
    serve_metrics(&mut metrics, &session.load, &session.show_cache)?;

    // The jobs again in process; both passes double as the identity check
    // of the persisted results.
    tracer.begin("jobs.replay", daemon_owner);
    let JobReplay {
        untraced,
        traced,
        taken,
        stats,
        untraced_s,
        traced_s,
        registry: reg,
    } = replay_jobs(&mut tracer, run, &session.jobs, &session.load.records);
    tracer.end();
    metrics.set("trace.overhead_ratio", traced_s / untraced_s - 1.0);
    let reports: Vec<ConfigValue> = session
        .jobs
        .iter()
        .zip(&untraced)
        .map(|(job, o)| match o {
            Some(o) => job
                .scenario
                .report_for_outcome(job.scenario.search.algorithm, o)
                .to_value(),
            None => ConfigValue::table(),
        })
        .collect();
    for (job, (a, b)) in session.jobs.iter().zip(untraced.iter().zip(&traced)) {
        if let (Some(a), Some(b)) = (a, b) {
            let algorithm = job.scenario.search.algorithm;
            tally.record(check_outcome(
                "traced job replay",
                &job.scenario.report_for_outcome(algorithm, b).to_value(),
                &job.scenario.report_for_outcome(algorithm, a).to_value(),
            ));
        }
    }
    serve::check_jobs(
        &session.state_dir,
        &session.jobs,
        &session.load.records,
        |i| reports[i].clone(),
        tally,
    );

    checkpoint_metrics(&mut metrics, &mut tracer, daemon_owner, &taken, true);
    let ckpt_s: f64 = taken
        .iter()
        .map(|t| (t.written - t.wanted).as_secs_f64())
        .sum();
    println!(
        "cross-check: checkpoint share of the traced replay, replayed {:.4} vs registry {:.4}",
        ckpt_s / traced_s,
        reg_sum_s(&reg, "nasaic_checkpoint_encode_wall_ns") / traced_s
    );
    engine_stats(&mut metrics, &stats);

    let mut owners = Vec::with_capacity(session.jobs.len());
    let mut parse_us = Vec::new();
    for (index, (job, record)) in session.jobs.iter().zip(&session.load.records).enumerate() {
        let owner = tracer.owner(&format!("job-{}", record.id.unwrap_or(0)));
        owners.push(owner);
        if traced[index].is_some() {
            let file = run.run_dir.join(format!("replay-{index}.ckpt.json"));
            parse_us.push(parse_job_inputs(&mut tracer, owner, &job.scenario, &file)?);
        }
    }
    metrics.set("value.parse_us", crate::mean(&parse_us));

    let streams: Vec<Explored> = session
        .jobs
        .iter()
        .zip(&traced)
        .zip(&owners)
        .filter_map(|((job, outcome), &owner)| {
            Some(Explored {
                scenario: &job.scenario,
                outcome: outcome.as_ref()?,
                owner,
            })
        })
        .collect();
    let rl_scenario = session
        .jobs
        .iter()
        .find(|j| j.scenario.search.algorithm == Algorithm::Nasaic)
        .map_or(&session.jobs[0].scenario, |j| &j.scenario);
    let rl_pairs =
        ((reg_count(&reg, "nasaic_controller_wall_ns") / 2.0) as usize).max(MIN_RL_PAIRS);
    replay_layers(&mut tracer, &streams, rl_scenario, rl_pairs);
    set_layer_metrics(
        &mut metrics,
        &layer_costs(&tracer, &streams),
        &reg,
        traced_s,
    );

    tracer.end();
    tracer.finish(&spans_path(run))?;
    Ok(metrics)
}
